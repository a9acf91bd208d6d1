#ifndef GRAPE_APPS_DUAL_SIM_H_
#define GRAPE_APPS_DUAL_SIM_H_

#include <cstdint>
#include <vector>

#include "apps/pattern.h"
#include "apps/sim.h"
#include "core/aggregators.h"
#include "core/pie.h"

namespace grape {

/// PIE program for *dual* graph simulation — the stronger matching notion
/// behind graph pattern association rules (the paper's GPAR application,
/// ref [1]): v dual-simulates pattern vertex u iff label(v) == label(u),
/// every pattern child edge u -> u' has a data witness v -> v' with v' in
/// sim(u') (as in plain simulation), AND every pattern parent edge u'' -> u
/// has a data witness v'' -> v with v'' in sim(u'').
///
/// Same machinery as SimApp — 64-bit candidate masks shrinking under
/// bitwise AND, owner-to-mirror refreshes — with refinement conditions in
/// both directions, so a mask change re-schedules both predecessor and
/// successor neighbours.
class DualSimApp {
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

/// Sequential reference: dual simulation over the whole graph.
std::vector<std::vector<VertexId>> SeqDualSimulation(const Graph& graph,
                                                     const Pattern& pattern);

}  // namespace grape

#endif  // GRAPE_APPS_DUAL_SIM_H_
