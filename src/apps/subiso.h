#ifndef GRAPE_APPS_SUBISO_H_
#define GRAPE_APPS_SUBISO_H_

#include <cstdint>
#include <vector>

#include "apps/pattern.h"
#include "apps/seq/seq_matching.h"
#include "core/aggregators.h"
#include "core/pie.h"
#include "partition/label_index.h"

namespace grape {

struct SubIsoQuery {
  Pattern pattern;
  /// Per-worker cap on enumerated embeddings (0 = unlimited).
  size_t max_results = 0;
};

struct SubIsoOutput {
  /// Sorted, deduplicated embeddings; embedding[u] = data vertex matched to
  /// pattern vertex u.
  std::vector<Embedding> embeddings;
};

/// PIE program for subgraph isomorphism (SubIso) by partial-embedding
/// forwarding:
///   PEval  : sequential ordered backtracking (the same procedure as
///            SeqSubgraphIsomorphism) over the local fragment, rooted at
///            inner candidates of the first order vertex.
///   IncEval: resumes received partial embeddings — each message carries an
///            embedding whose next anchor (or pending-verification vertex)
///            is owned by this worker, where its full adjacency is visible.
///   Update parameters: per-vertex embedding outboxes, union-aggregated and
///            drained after each flush (kResetAfterFlush). The set of
///            discovered embeddings grows monotonically, so the computation
///            reaches a fixed point once no embedding is in flight.
class SubIsoApp {
 public:
  using QueryType = SubIsoQuery;
  /// A travelling partial match: positions [0, k) hold the data vertex per
  /// pattern vertex (kInvalidVertex = unmatched); position k holds
  /// 1 + order-position pending verification, or 0 if none.
  using ValueType = std::vector<std::vector<VertexId>>;
  using AggregatorType = AppendAggregator<std::vector<VertexId>>;
  using PartialType = std::vector<Embedding>;
  using OutputType = SubIsoOutput;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = true;

  ValueType InitValue() const { return {}; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<ValueType>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<ValueType>& params,
               const std::vector<LocalId>& updated);
  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<ValueType>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return 0.0; }

 private:
  /// Continues the backtracking search for one partial embedding.
  void Extend(const QueryType& query, const Fragment& frag,
              ParamStore<ValueType>& params, std::vector<VertexId>& match,
              size_t depth);

  std::vector<uint32_t> order_;       // shared matching order
  std::vector<Embedding> results_;    // completed embeddings at this worker
  LabelIndex index_;                  // label -> inner candidates
};

}  // namespace grape

#endif  // GRAPE_APPS_SUBISO_H_
