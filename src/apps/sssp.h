#ifndef GRAPE_APPS_SSSP_H_
#define GRAPE_APPS_SSSP_H_

#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/codec.h"
#include "core/pie.h"

namespace grape {

struct SsspQuery {
  VertexId source = 0;

  // Wire codec: lets the query ship to remote worker hosts.
  void EncodeTo(Encoder& enc) const { enc.WriteU32(source); }
  static Status DecodeFrom(Decoder& dec, SsspQuery* out) {
    return dec.ReadU32(&out->source);
  }
};

struct SsspOutput {
  /// dist[gid] = shortest distance from the source; kInfDistance when
  /// unreachable.
  std::vector<double> dist;
};

/// PIE program for single-source shortest paths — the paper's Example 1.
///   PEval  : sequential Dijkstra on the local fragment, seeded at the
///            source if this worker owns it.
///   IncEval: the incremental shortest-path algorithm of Ramalingam–Reps —
///            Dijkstra re-seeded only at vertices whose distance decreased
///            via messages, so its cost is bounded by |M_i| + |ΔO_i|.
///   Update parameters: the distance variable x_v of every border/outer
///            vertex, aggregated with min (monotonically decreasing).
class SsspApp {
 public:
  using QueryType = SsspQuery;
  using ValueType = double;
  using AggregatorType = MinAggregator<double>;
  using PartialType = std::vector<std::pair<VertexId, double>>;
  using OutputType = SsspOutput;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = false;

  ValueType InitValue() const { return kInfDistance; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<double>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<double>& params,
               const std::vector<LocalId>& updated);

  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<double>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return 0.0; }
};

}  // namespace grape

#endif  // GRAPE_APPS_SSSP_H_
