#ifndef GRAPE_APPS_MS_BFS_H_
#define GRAPE_APPS_MS_BFS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "apps/multi_source.h"
#include "core/codec.h"

namespace grape {

struct MsBfsQuery {
  /// One value lane per source; lane k answers BfsQuery{sources[k]}.
  std::vector<VertexId> sources;

  // Wire codec: lets the query ship to remote worker hosts.
  void EncodeTo(Encoder& enc) const { EncodeValue(enc, sources); }
  static Status DecodeFrom(Decoder& dec, MsBfsQuery* out) {
    return DecodeValue(dec, &out->sources);
  }
};

struct MsBfsOutput {
  /// depth[k][gid] = hop count from sources[k]; UINT32_MAX when
  /// unreachable. depth[k] matches a single-source BfsApp run exactly.
  std::vector<std::vector<uint32_t>> depth;
};

/// Multi-source BFS: MsSsspApp's lane-major kernel with unit steps and
/// u32 depths. K BfsApp queries fuse into one wave; each fragment holds
/// one flat array depth[k * num_local + lid], lane k runs BfsApp's exact
/// unit-weight Dijkstra over its own row, improved outer vertices cross
/// the wire as K-vectors of u32 under element-wise min, and the partial
/// is one flat K × num_inner block. Lane k's depths are bit-identical to
/// a standalone BfsApp run from sources[k].
class MsBfsApp : public MultiSourceApp<MsBfsQuery, uint32_t, UnitStep> {
 public:
  using OutputType = MsBfsOutput;

  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials) {
    return {AssembleLanes(query, std::move(partials))};
  }
};

extern template class MultiSourceApp<MsBfsQuery, uint32_t, UnitStep>;

}  // namespace grape

#endif  // GRAPE_APPS_MS_BFS_H_
