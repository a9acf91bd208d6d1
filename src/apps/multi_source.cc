#include "apps/multi_source.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <system_error>
#include <thread>

#include "apps/ms_bfs.h"
#include "apps/ms_sssp.h"

namespace grape {

namespace {

/// Below this many local vertices a lane's Dijkstra takes about as long as
/// starting a thread, so the fragment drains its lanes inline. Measured
/// with bench_serving's wave sweep on 3 metis fragments: 8 lanes over
/// ~700 local vertices each ran slower on threads, over ~2,800 faster.
constexpr LocalId kMinThreadedLocal = 2048;

}  // namespace

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::PrepareLanes(const Fragment& frag) {
  num_inner_ = frag.num_inner();
  const LocalId num_outer = frag.num_outer();
  scratch_.resize(lanes_);
  for (LaneScratch& lane : scratch_) {
    // The heap can outgrow this in principle (lazy deletion keeps stale
    // entries); a Dijkstra frontier stays far below it in practice.
    lane.heap.reserve(num_local_);
    lane.outer.reserve(num_outer);
    lane.outer_listed.resize(num_outer);  // all zero between calls
  }
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::Improve(const Fragment& frag,
                                                  LaneScratch& lane,
                                                  Dist* row, LocalId lid,
                                                  Dist d) {
  row[lid] = d;
  lane.heap.emplace_back(d, lid);
  std::push_heap(lane.heap.begin(), lane.heap.end(), std::greater<>{});
  if (frag.IsOuter(lid) && !lane.outer_listed[lid - num_inner_]) {
    lane.outer_listed[lid - num_inner_] = 1;
    lane.outer.push_back(lid);
  }
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::RunLane(const Fragment& frag,
                                                  uint32_t k) {
  LaneScratch& lane = scratch_[k];
  std::vector<std::pair<Dist, LocalId>>& heap = lane.heap;
  Dist* row = Row(k);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, v] = heap.back();
    heap.pop_back();
    if (d > row[v]) continue;
    for (const FragNeighbor& nb : frag.OutNeighbors(v)) {
      const Dist nd = StepFn::Step(d, nb);
      if (nd < row[nb.local]) Improve(frag, lane, row, nb.local, nd);
    }
  }
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::RunLanes(const Fragment& frag) {
  std::vector<uint32_t> busy;
  for (uint32_t k = 0; k < lanes_; ++k) {
    if (!scratch_[k].heap.empty()) busy.push_back(k);
  }
  if (busy.size() <= 1 || num_local_ < kMinThreadedLocal) {
    for (uint32_t k : busy) RunLane(frag, k);
    return;
  }
  static const size_t kCores =
      std::max(1u, std::thread::hardware_concurrency());
  const size_t helpers = std::min(busy.size(), kCores) - 1;
  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < busy.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      RunLane(frag, busy[i]);
    }
  };
  std::vector<std::jthread> threads;  // joined on every way out
  threads.reserve(helpers);
  for (size_t t = 0; t < helpers; ++t) {
    try {
      threads.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // out of threads: the ones running and the caller finish
    }
  }
  drain();
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::PublishOuter(
    ParamStore<ValueType>& params) {
  // Lane order, then each lane's first-improvement order: the order the
  // lanes run back to back would list the outer vertices in.
  for (LaneScratch& lane : scratch_) {
    for (LocalId lid : lane.outer) {
      lane.outer_listed[lid - num_inner_] = 0;
      if (dirty_flag_[lid]) continue;
      dirty_flag_[lid] = 1;
      uint32_t width = lanes_;
      while (Row(width - 1)[lid] == kUnreached) --width;
      ValueType& value = params.Mutate(lid);
      value.resize(width);
      for (uint32_t k = 0; k < width; ++k) value[k] = Row(k)[lid];
    }
  }
  for (LaneScratch& lane : scratch_) {
    for (LocalId lid : lane.outer) dirty_flag_[lid] = 0;
    lane.outer.clear();
  }
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::PEval(
    const Query& query, const Fragment& frag, ParamStore<ValueType>& params) {
  lanes_ = static_cast<uint32_t>(query.sources.size());
  num_local_ = frag.num_local();
  dist_.assign(size_t{lanes_} * num_local_, kUnreached);
  dirty_flag_.assign(num_local_, 0);
  PrepareLanes(frag);
  for (uint32_t k = 0; k < lanes_; ++k) {
    const LocalId lid = frag.Lid(query.sources[k]);
    // Only the owner seeds, as in the single-source apps: a mirror would
    // relay a stale unreached value, and its true one arrives by message.
    if (lid != kInvalidLocal && frag.IsInner(lid)) {
      Improve(frag, scratch_[k], Row(k), lid, Dist{0});
    }
  }
  RunLanes(frag);
  PublishOuter(params);
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::IncEval(
    const Query& query, const Fragment& frag, ParamStore<ValueType>& params,
    const std::vector<LocalId>& updated) {
  (void)query;
  PrepareLanes(frag);
  for (uint32_t k = 0; k < lanes_; ++k) {
    Dist* row = Row(k);
    for (LocalId lid : updated) {
      const ValueType& in = params.Get(lid);
      if (k < in.size() && in[k] < row[lid]) {
        Improve(frag, scratch_[k], row, lid, in[k]);
      }
    }
  }
  RunLanes(frag);
  PublishOuter(params);
}

template <typename Query, typename Dist, typename StepFn>
LanePartial<Dist> MultiSourceApp<Query, Dist, StepFn>::GetPartial(
    const Query& query, const Fragment& frag,
    const ParamStore<ValueType>& params) const {
  (void)query;
  (void)params;
  const LocalId n = frag.num_inner();
  PartialType partial;
  partial.lanes = lanes_;
  partial.gids.assign(frag.gids().begin(), frag.gids().begin() + n);
  partial.dist.resize(size_t{lanes_} * n);
  for (uint32_t k = 0; k < lanes_; ++k) {
    std::copy_n(Row(k), n, partial.dist.begin() + size_t{k} * n);
  }
  return partial;
}

template <typename Query, typename Dist, typename StepFn>
std::vector<std::vector<Dist>>
MultiSourceApp<Query, Dist, StepFn>::AssembleLanes(
    const Query& query, std::vector<PartialType>&& partials) {
  VertexId n = 0;
  for (const PartialType& p : partials) {
    for (VertexId gid : p.gids) n = std::max(n, gid + 1);
  }
  std::vector<std::vector<Dist>> lanes(query.sources.size(),
                                       std::vector<Dist>(n, kUnreached));
  for (const PartialType& p : partials) {
    const size_t width = p.gids.size();
    for (size_t k = 0; k < std::min<size_t>(lanes.size(), p.lanes); ++k) {
      const Dist* src = p.dist.data() + k * width;
      Dist* dst = lanes[k].data();
      for (size_t i = 0; i < width; ++i) dst[p.gids[i]] = src[i];
    }
  }
  return lanes;
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::EncodeState(Encoder& enc) const {
  enc.WriteU32(lanes_);
  enc.WriteU32(num_local_);
  enc.WritePodVector(dist_);
}

template <typename Query, typename Dist, typename StepFn>
Status MultiSourceApp<Query, Dist, StepFn>::DecodeState(Decoder& dec) {
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&lanes_));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&num_local_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&dist_));
  if (dist_.size() != size_t{lanes_} * num_local_) {
    return Status::Corruption("lane array of " + std::to_string(dist_.size()) +
                              " values != " + std::to_string(lanes_) +
                              " lanes x " + std::to_string(num_local_));
  }
  dirty_flag_.assign(num_local_, 0);
  scratch_.clear();  // IncEval sizes it afresh
  return Status::OK();
}

template class MultiSourceApp<MsSsspQuery, double, WeightedStep>;
template class MultiSourceApp<MsBfsQuery, uint32_t, UnitStep>;

}  // namespace grape
