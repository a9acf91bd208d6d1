#ifndef GRAPE_APPS_SIM_H_
#define GRAPE_APPS_SIM_H_

#include <cstdint>
#include <vector>

#include "apps/pattern.h"
#include "core/aggregators.h"
#include "core/pie.h"

namespace grape {

struct SimQuery {
  Pattern pattern;
};

struct SimOutput {
  /// sim[u] = sorted data vertices simulating pattern vertex u.
  std::vector<std::vector<VertexId>> sim;
};

/// PIE program for graph pattern matching via simulation (Sim).
///   Update parameter of data vertex v: a 64-bit mask, bit u set iff v
///   currently simulates pattern vertex u. Masks only shrink, aggregated
///   with bitwise AND — a monotonic computation under set inclusion, so the
///   Assurance Theorem applies.
///   PEval  : the sequential Henzinger-Henzinger-Kopke refinement restricted
///            to the fragment, with outer masks optimistically initialized
///            by label (a superset of the truth, so no sound candidate is
///            ever lost).
///   IncEval: worklist refinement re-seeded at inner predecessors of outer
///            vertices whose masks shrank at their owner.
class SimApp {
 public:
  using QueryType = SimQuery;
  using ValueType = uint64_t;
  using AggregatorType = BitAndAggregator;
  using PartialType = std::vector<std::vector<VertexId>>;
  using OutputType = SimOutput;
  static constexpr MessageScope kScope = MessageScope::kToMirrors;
  static constexpr bool kResetAfterFlush = false;

  ValueType InitValue() const { return ~0ULL; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<uint64_t>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<uint64_t>& params,
               const std::vector<LocalId>& updated);
  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<uint64_t>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return 0.0; }
};

}  // namespace grape

#endif  // GRAPE_APPS_SIM_H_
