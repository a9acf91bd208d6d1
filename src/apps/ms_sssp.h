#ifndef GRAPE_APPS_MS_SSSP_H_
#define GRAPE_APPS_MS_SSSP_H_

#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/codec.h"
#include "core/pie.h"

namespace grape {

struct MsSsspQuery {
  /// One value lane per source; lane k answers SsspQuery{sources[k]}.
  std::vector<VertexId> sources;

  // Wire codec: lets the query ship to remote worker hosts.
  void EncodeTo(Encoder& enc) const { EncodeValue(enc, sources); }
  static Status DecodeFrom(Decoder& dec, MsSsspQuery* out) {
    return DecodeValue(dec, &out->sources);
  }
};

struct MsSsspOutput {
  /// dist[k][gid] = shortest distance from sources[k]; kInfDistance when
  /// unreachable. dist[k] is element-for-element the dist vector a
  /// single-source SsspApp run from sources[k] would assemble.
  std::vector<std::vector<double>> dist;
};

/// Multi-source SSSP: the serving layer's batching vehicle. K single-source
/// queries fuse into one superstep wave by giving every vertex a K-lane
/// distance vector; lane k runs SsspApp's exact sequential Dijkstra (same
/// heap discipline, same left-fold of double additions in the same neighbor
/// order), and lanes never interact — element-wise min aggregation keeps
/// each lane an independent monotonic fixed point. Hence lane k's converged
/// distances are bit-identical to a standalone SsspApp run from sources[k];
/// only the superstep count (the max over lanes) differs.
class MsSsspApp {
 public:
  using QueryType = MsSsspQuery;
  using ValueType = std::vector<double>;
  using AggregatorType = ElementwiseMinAggregatorT<double>;
  using PartialType = std::vector<std::pair<VertexId, std::vector<double>>>;
  using OutputType = MsSsspOutput;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = false;

  /// Lanes are lazy: a missing tail means +inf, so untouched vertices cost
  /// no K-vector storage or wire bytes.
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
};

}  // namespace grape

#endif  // GRAPE_APPS_MS_SSSP_H_
