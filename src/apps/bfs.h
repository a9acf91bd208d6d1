#ifndef GRAPE_APPS_BFS_H_
#define GRAPE_APPS_BFS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/codec.h"
#include "core/pie.h"

namespace grape {

struct BfsQuery {
  VertexId source = 0;

  // Wire codec: lets the query ship to remote worker hosts.
  void EncodeTo(Encoder& enc) const { enc.WriteU32(source); }
  static Status DecodeFrom(Decoder& dec, BfsQuery* out) {
    return dec.ReadU32(&out->source);
  }
};

struct BfsOutput {
  /// depth[gid] = hop count from the source; UINT32_MAX when unreachable.
  std::vector<uint32_t> depth;
};

/// PIE program for BFS hop counts: structurally SSSP with unit weights —
/// PEval is a plain sequential BFS, IncEval continues from message-improved
/// vertices, and min aggregation keeps depths monotonically decreasing.
class BfsApp {
 public:
  using QueryType = BfsQuery;
  using ValueType = uint32_t;
  using AggregatorType = MinAggregator<uint32_t>;
  using PartialType = std::vector<std::pair<VertexId, uint32_t>>;
  using OutputType = BfsOutput;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = false;

  ValueType InitValue() const { return UINT32_MAX; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<uint32_t>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<uint32_t>& params,
               const std::vector<LocalId>& updated);
  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<uint32_t>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return 0.0; }
};

}  // namespace grape

#endif  // GRAPE_APPS_BFS_H_
