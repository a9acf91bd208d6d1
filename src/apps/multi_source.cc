#include "apps/multi_source.h"

#include <algorithm>
#include <functional>
#include <string>

#include "apps/ms_bfs.h"
#include "apps/ms_sssp.h"

namespace grape {

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::Improve(const Fragment& frag,
                                                  Dist* row, LocalId lid,
                                                  Dist d) {
  row[lid] = d;
  heap_.emplace_back(d, lid);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  if (frag.IsOuter(lid) && !dirty_flag_[lid]) {
    dirty_flag_[lid] = 1;
    dirty_.push_back(lid);
  }
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::RunLane(const Fragment& frag,
                                                  uint32_t k) {
  Dist* row = Row(k);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [d, v] = heap_.back();
    heap_.pop_back();
    if (d > row[v]) continue;
    for (const FragNeighbor& nb : frag.OutNeighbors(v)) {
      const Dist nd = StepFn::Step(d, nb);
      if (nd < row[nb.local]) Improve(frag, row, nb.local, nd);
    }
  }
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::PublishOuter(
    ParamStore<ValueType>& params) {
  for (LocalId lid : dirty_) {
    dirty_flag_[lid] = 0;
    uint32_t width = lanes_;
    while (Row(width - 1)[lid] == kUnreached) --width;
    ValueType& value = params.Mutate(lid);
    value.resize(width);
    for (uint32_t k = 0; k < width; ++k) value[k] = Row(k)[lid];
  }
  dirty_.clear();
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::PEval(
    const Query& query, const Fragment& frag, ParamStore<ValueType>& params) {
  lanes_ = static_cast<uint32_t>(query.sources.size());
  num_local_ = frag.num_local();
  dist_.assign(size_t{lanes_} * num_local_, kUnreached);
  dirty_flag_.assign(num_local_, 0);
  dirty_.clear();
  for (uint32_t k = 0; k < lanes_; ++k) {
    const LocalId lid = frag.Lid(query.sources[k]);
    // Only the owner seeds, as in the single-source apps: a mirror would
    // relay a stale unreached value, and its true one arrives by message.
    if (lid != kInvalidLocal && frag.IsInner(lid)) {
      Improve(frag, Row(k), lid, Dist{0});
    }
    RunLane(frag, k);
  }
  PublishOuter(params);
}

template <typename Query, typename Dist, typename StepFn>
void MultiSourceApp<Query, Dist, StepFn>::IncEval(
    const Query& query, const Fragment& frag, ParamStore<ValueType>& params,
    const std::vector<LocalId>& updated) {
  (void)query;
  for (uint32_t k = 0; k < lanes_; ++k) {
    Dist* row = Row(k);
    for (LocalId lid : updated) {
      const ValueType& in = params.Get(lid);
      if (k < in.size() && in[k] < row[lid]) Improve(frag, row, lid, in[k]);
    }
    RunLane(frag, k);
  }
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
  dirty_.clear();
  heap_.clear();
  return Status::OK();
}

template class MultiSourceApp<MsSsspQuery, double, WeightedStep>;
template class MultiSourceApp<MsBfsQuery, uint32_t, UnitStep>;

}  // namespace grape
