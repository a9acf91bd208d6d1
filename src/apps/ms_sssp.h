#ifndef GRAPE_APPS_MS_SSSP_H_
#define GRAPE_APPS_MS_SSSP_H_

#include <utility>
#include <vector>

#include "apps/multi_source.h"
#include "core/codec.h"

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
/// queries fuse into one superstep wave, one distance lane per source.
/// Each fragment holds the lanes in one flat lane-major array,
/// dist[k * num_local + lid], and lane k runs SsspApp's exact sequential
/// Dijkstra (same heap discipline, same left-fold of double additions in
/// the same neighbor order) over its own row. Only improved outer vertices
/// cross the wire, as K-vectors of doubles folded by element-wise min, and
/// each fragment's partial is one flat K × num_inner block (LanePartial).
/// Lane k's distances are bit-identical to a standalone SsspApp run from
/// sources[k]; only the superstep count (the max over lanes) differs. The
/// kernel is shared with MsBfsApp (apps/multi_source.h).
class MsSsspApp : public MultiSourceApp<MsSsspQuery, double, WeightedStep> {
 public:
  using OutputType = MsSsspOutput;

  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials) {
    return {AssembleLanes(query, std::move(partials))};
  }
};

extern template class MultiSourceApp<MsSsspQuery, double, WeightedStep>;

}  // namespace grape

#endif  // GRAPE_APPS_MS_SSSP_H_
