#ifndef GRAPE_APPS_MULTI_SOURCE_H_
#define GRAPE_APPS_MULTI_SOURCE_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/codec.h"
#include "core/pie.h"

namespace grape {

/// One fragment's lane-major partial answer: `lanes` rows over the inner
/// vertices `gids`, so dist[k * gids.size() + i] is lane k's value at
/// gids[i]. Two pod blocks on the wire.
template <typename Dist>
struct LanePartial {
  uint32_t lanes = 0;
  std::vector<VertexId> gids;
  std::vector<Dist> dist;

  void EncodeTo(Encoder& enc) const {
    enc.WriteU32(lanes);
    enc.WritePodVector(gids);
    enc.WritePodVector(dist);
  }
  static Status DecodeFrom(Decoder& dec, LanePartial* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->lanes));
    GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&out->gids));
    GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&out->dist));
    if (out->dist.size() != uint64_t{out->lanes} * out->gids.size()) {
      return Status::Corruption("lane partial size mismatch");
    }
    return Status::OK();
  }
};

/// Relaxation steps: the distance an edge `nb` yields from distance `d`.
struct WeightedStep {
  static double Step(double d, const FragNeighbor& nb) { return d + nb.weight; }
};
struct UnitStep {
  static uint32_t Step(uint32_t d, const FragNeighbor&) { return d + 1; }
};

/// The lane-major multi-source kernel behind MsSsspApp and MsBfsApp: K
/// single-source queries (`Query::sources`) fused into one PIE run.
///
/// Layout: the app owns one flat array per fragment, dist_[k * num_local
/// + lid], sized at PEval. Lane k runs the single-source app's exact
/// lazy-deletion heap Dijkstra over its raw row (same `Step` fold in the
/// same neighbor order), and lanes never interact, so lane k converges to
/// the bits a single-source run from sources[k] assembles: min over
/// fl(d + w) is monotone in d, so every relaxation order reaches the same
/// fixed point.
///
/// Concurrency: each query stays sequential, but the K lanes of one
/// PEval/IncEval call are independent, so the call seeds every lane and
/// then drains them concurrently (RunLanes; a fragment too small to pay
/// for a thread start drains them inline). Each lane owns its scratch —
/// a heap and the list of outer vertices it improved — and writes only
/// its own row, so a lane relaxes in exactly the order it would alone.
/// The threads are short-lived and joined before the call returns: a
/// persistent pool would be alive when TcpTransport forks its endpoints.
///
/// What crosses the wire: only outer vertices carry K-vectors in the
/// ParamStore. At the end of each PEval/IncEval the app merges the lane
/// lists in lane order and writes every improved outer vertex, once, as
/// its lanes up to the last reached one (a missing tail means
/// unreached); the coordinator folds them with element-wise min. IncEval
/// reads the aggregated vectors of the `updated` border vertices and
/// seeds only the lanes that beat the flat row. The partial is a
/// LanePartial; Assemble scatters each lane in one pass. The flat array
/// is private state, so it is checkpointed through EncodeState/
/// DecodeState, and a warm start from the ParamStore alone is unsound:
/// RunIncremental takes the enforced full-run fallback.
template <typename Query, typename Dist, typename StepFn>
class MultiSourceApp {
 public:
  using QueryType = Query;
  using ValueType = std::vector<Dist>;
  using AggregatorType = ElementwiseMinAggregatorT<Dist>;
  using PartialType = LanePartial<Dist>;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = false;

  /// kInfDistance for distances, UINT32_MAX for hop counts.
  static constexpr Dist kUnreached =
      std::numeric_limits<Dist>::has_infinity
          ? std::numeric_limits<Dist>::infinity()
          : std::numeric_limits<Dist>::max();

  /// Inner vertices never hold a value of their own in the store (only
  /// the aggregate of the messages they received), so the empty vector —
  /// every lane unreached — costs no heap storage.
  ValueType InitValue() const { return {}; }

  void PEval(const Query& query, const Fragment& frag,
             ParamStore<ValueType>& params);
  void IncEval(const Query& query, const Fragment& frag,
               ParamStore<ValueType>& params,
               const std::vector<LocalId>& updated);
  PartialType GetPartial(const Query& query, const Fragment& frag,
                         const ParamStore<ValueType>& params) const;

  double GlobalValue() const { return 0.0; }

  // Checkpoint hooks (CheckpointableApp): the flat lane array.
  void EncodeState(Encoder& enc) const;
  Status DecodeState(Decoder& dec);

 protected:
  /// lanes[k][gid] = lane k's value; kUnreached where no partial has gid.
  static std::vector<std::vector<Dist>> AssembleLanes(
      const Query& query, std::vector<PartialType>&& partials);

 private:
  Dist* Row(uint32_t k) { return dist_.data() + size_t{k} * num_local_; }
  const Dist* Row(uint32_t k) const {
    return dist_.data() + size_t{k} * num_local_;
  }
  /// One lane's private working set: only the thread draining the lane
  /// touches it.
  struct LaneScratch {
    std::vector<std::pair<Dist, LocalId>> heap;
    std::vector<LocalId> outer;         // improved outer vertices, in order
    std::vector<uint8_t> outer_listed;  // by lid - num_inner_: in `outer`
  };

  /// Sizes one scratch per lane on the calling thread, so the lane
  /// threads do not allocate (a new thread's first malloc opens an arena).
  void PrepareLanes(const Fragment& frag);
  /// Lowers `lane`'s `row` at `lid` to `d` and queues it for relaxation.
  void Improve(const Fragment& frag, LaneScratch& lane, Dist* row,
               LocalId lid, Dist d);
  /// Drains lane k's heap over its row.
  void RunLane(const Fragment& frag, uint32_t k);
  /// Drains every seeded lane: inline when only one has work or the
  /// fragment is small, otherwise on up to one thread per core, the
  /// caller included.
  void RunLanes(const Fragment& frag);
  /// Writes every improved outer vertex's lanes into the store, once, in
  /// the order the lanes run back to back would first improve them.
  void PublishOuter(ParamStore<ValueType>& params);

  uint32_t lanes_ = 0;
  LocalId num_local_ = 0;
  LocalId num_inner_ = 0;
  std::vector<Dist> dist_;           // dist_[k * num_local_ + lid]
  std::vector<uint8_t> dirty_flag_;  // by lid: outer vertex published
  std::vector<LaneScratch> scratch_;  // by lane
};

}  // namespace grape

#endif  // GRAPE_APPS_MULTI_SOURCE_H_
