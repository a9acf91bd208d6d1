#ifndef GRAPE_APPS_CC_H_
#define GRAPE_APPS_CC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/codec.h"
#include "core/pie.h"

namespace grape {

struct CcQuery {
  // Wire codec: CC takes no query parameters, but remote worker hosts
  // still round-trip the (empty) query.
  void EncodeTo(Encoder& enc) const { (void)enc; }
  static Status DecodeFrom(Decoder& dec, CcQuery* out) {
    (void)dec;
    (void)out;
    return Status::OK();
  }
};

struct CcOutput {
  /// label[gid] = smallest vertex id in gid's (weakly) connected component.
  std::vector<VertexId> label;
};

/// PIE program for connected components (CC in the paper's library).
///   PEval  : sequential min-label propagation over the whole fragment
///            (each vertex starts with its own id).
///   IncEval: propagation re-seeded only from vertices whose label dropped
///            via messages.
///   Update parameters: component labels on border/outer vertices,
///            aggregated with min — a textbook monotonic computation.
/// Directed graphs are treated as their undirected (weakly connected) view.
class CcApp {
 public:
  using QueryType = CcQuery;
  using ValueType = VertexId;
  using AggregatorType = MinAggregator<VertexId>;
  using PartialType = std::vector<std::pair<VertexId, VertexId>>;
  using OutputType = CcOutput;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = false;

  ValueType InitValue() const { return kInvalidVertex; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<VertexId>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<VertexId>& params,
               const std::vector<LocalId>& updated);

  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<VertexId>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return 0.0; }

 private:
  std::vector<uint8_t> queued_;  // Propagate's worklist flags, kept clear
};

}  // namespace grape

#endif  // GRAPE_APPS_CC_H_
