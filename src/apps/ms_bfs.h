#ifndef GRAPE_APPS_MS_BFS_H_
#define GRAPE_APPS_MS_BFS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/codec.h"
#include "core/pie.h"

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

/// Multi-source BFS: MsSsspApp with unit weights — K BfsApp queries fused
/// into one wave, one value lane per source, each lane running BfsApp's
/// exact unit-weight Dijkstra independently under element-wise min. Lane
/// k's depths are bit-identical to a standalone BfsApp run from sources[k].
class MsBfsApp {
 public:
  using QueryType = MsBfsQuery;
  using ValueType = std::vector<uint32_t>;
  using AggregatorType = ElementwiseMinAggregatorT<uint32_t>;
  using PartialType = std::vector<std::pair<VertexId, std::vector<uint32_t>>>;
  using OutputType = MsBfsOutput;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = false;

  /// Lanes are lazy: a missing tail means unreachable (UINT32_MAX).
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

#endif  // GRAPE_APPS_MS_BFS_H_
