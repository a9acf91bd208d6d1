#ifndef GRAPE_APPS_TRIANGLE_H_
#define GRAPE_APPS_TRIANGLE_H_

#include <cstdint>
#include <vector>

#include "core/aggregators.h"
#include "core/pie.h"

namespace grape {

struct TriangleQuery {};

struct TriangleOutput {
  uint64_t triangles = 0;
};

/// PIE program counting triangles in the undirected view of the graph — an
/// extension query class beyond the paper's six, showcasing wedge
/// forwarding over the same update-parameter machinery SubIso uses.
///
/// Each triangle {u < v < w} (by global id) is found exactly once at its
/// middle vertex v: PEval enumerates wedges u - v - w with u < v < w and
/// verifies the closing edge u - w wherever an endpoint's full adjacency is
/// local; otherwise the wedge travels to u's owner (kToOwner + reset
/// outboxes), whose IncEval closes it. The triangle count grows
/// monotonically, and the fixed point is reached when no wedge is in
/// flight — typically three supersteps.
class TriangleApp {
 public:
  using QueryType = TriangleQuery;
  /// Per-vertex outbox of wedge partners: for messages addressed to u, each
  /// entry w asks "does edge (u, w) exist?".
  using ValueType = std::vector<VertexId>;
  using AggregatorType = AppendAggregator<VertexId>;
  using PartialType = uint64_t;
  using OutputType = TriangleOutput;
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
  uint64_t local_count_ = 0;
};

}  // namespace grape

#endif  // GRAPE_APPS_TRIANGLE_H_
