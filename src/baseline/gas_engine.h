#ifndef GRAPE_BASELINE_GAS_ENGINE_H_
#define GRAPE_BASELINE_GAS_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/codec.h"
#include "partition/fragment.h"
#include "rt/comm_world.h"
#include "util/bitset.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace grape {

struct GasMetrics {
  uint32_t rounds = 0;
  double seconds = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t ghost_updates = 0;
};

struct GasOptions {
  uint32_t max_rounds = 1000000;
};

/// Synchronous Gather-Apply-Scatter engine in the (sync) GraphLab/PowerGraph
/// mould: data-driven per-vertex scheduling with ghost replicas. Owners of
/// changed border vertices push ghost updates to replica fragments
/// (worker-to-worker, no coordinator); a ghost update activates the ghost's
/// local out-neighbours, which gather over their in-edges next round.
///
/// A program Prog supplies:
///   using GatherType = ...; using VertexValueType = ...;
///   static constexpr bool kGatherBoth = ...;  // gather/scatter both ways?
///   VertexValueType InitValue(VertexId gid, VertexId n) const;
///   bool IsInitiallyActive(VertexId gid) const;
///   GatherType IdentityGather() const;
///   GatherType Gather(const FragNeighbor& in_edge,
///                     const VertexValueType& nbr_val) const;
///   GatherType Merge(const GatherType&, const GatherType&) const;
///   bool Apply(VertexValueType& val, const GatherType& total) const;
///
/// Initially-active vertices seed the computation by scheduling their
/// neighbours (replica fragments compute the same seeds from their ghosts'
/// deterministic InitValue, so no start-up messages are needed).
template <typename Prog>
class GasEngine {
 public:
  using Val = typename Prog::VertexValueType;

  GasEngine(const FragmentedGraph& fg, Prog prog, GasOptions options = {})
      : fg_(fg),
        prog_(std::move(prog)),
        options_(options),
        world_(fg.num_fragments()),
        pool_(fg.num_fragments()) {}

  Status Run() {
    WallTimer timer;
    metrics_ = GasMetrics{};
    world_.ResetStats();
    const FragmentId n = fg_.num_fragments();

    values_.assign(n, {});
    active_.assign(n, {});
    statuses_.assign(n, Status::OK());
    pending_ghosts_.assign(n, {});
    for (FragmentId i = 0; i < n; ++i) {
      const Fragment& frag = fg_.fragments[i];
      values_[i].resize(frag.num_local());
      for (LocalId v = 0; v < frag.num_local(); ++v) {
        values_[i][v] = prog_.InitValue(frag.Gid(v), frag.total_num_vertices());
      }
      active_[i].Resize(frag.num_inner());
      for (LocalId v = 0; v < frag.num_local(); ++v) {
        if (!prog_.IsInitiallyActive(frag.Gid(v))) continue;
        if (frag.IsInner(v)) active_[i].Set(v);
        // Seed the seeds' neighbourhoods so the first gather sees them
        // (ghost copies seed their local neighbourhoods symmetrically).
        for (const FragNeighbor& e : frag.OutNeighbors(v)) {
          if (frag.IsInner(e.local)) active_[i].Set(e.local);
        }
        if (Prog::kGatherBoth) {
          for (const FragNeighbor& e : frag.InNeighbors(v)) {
            if (frag.IsInner(e.local)) active_[i].Set(e.local);
          }
        }
      }
    }

    uint32_t round = 0;
    while (round < options_.max_rounds) {
      size_t total_active = 0;
      for (FragmentId i = 0; i < n; ++i) total_active += active_[i].Count();
      uint64_t pending = 0;
      for (FragmentId i = 0; i < n; ++i) pending += world_.PendingCount(i);
      if (total_active == 0 && pending == 0) break;

      // Compute and ghost-shipping run in separate phases so updates are
      // only visible next round (synchronous GAS semantics).
      pool_.ParallelFor(0, n, [&](size_t i) {
        Status s = ComputeRound(static_cast<FragmentId>(i));
        if (!s.ok()) statuses_[i] = s;
      });
      pool_.ParallelFor(0, n, [&](size_t i) {
        Status s = ShipGhostUpdates(static_cast<FragmentId>(i));
        if (!s.ok()) statuses_[i] = s;
      });
      for (FragmentId i = 0; i < n; ++i) {
        GRAPE_RETURN_NOT_OK(statuses_[i]);
      }
      ++round;
    }

    CommStats cs = world_.stats();
    metrics_.rounds = round;
    metrics_.messages = cs.messages;
    metrics_.bytes = cs.bytes;
    metrics_.seconds = timer.ElapsedSeconds();
    return Status::OK();
  }

  const Val& ValueOf(VertexId gid) const {
    FragmentId f = (*fg_.owner)[gid];
    LocalId lid = fg_.fragments[f].Lid(gid);
    return values_[f][lid];
  }

  const GasMetrics& metrics() const { return metrics_; }

 private:
  Status ComputeRound(FragmentId i) {
    const Fragment& frag = fg_.fragments[i];
    std::vector<Val>& vals = values_[i];
    Bitset& active = active_[i];
    Bitset next(frag.num_inner());

    // (0) Apply ghost updates from the previous round; each activates the
    // ghost's local out-neighbours.
    while (auto msg = world_.TryRecv(i, kTagVertexMessage)) {
      Decoder dec(msg->payload);
      uint64_t count = 0;
      GRAPE_RETURN_NOT_OK(dec.ReadVarint(&count));
      for (uint64_t k = 0; k < count; ++k) {
        VertexId gid = 0;
        Val val{};
        GRAPE_RETURN_NOT_OK(dec.ReadU32(&gid));
        GRAPE_RETURN_NOT_OK(DecodeValue(dec, &val));
        LocalId lid = frag.Lid(gid);
        if (lid == kInvalidLocal) {
          return Status::Internal("ghost update for unknown vertex");
        }
        vals[lid] = std::move(val);
        metrics_.ghost_updates++;
        for (const FragNeighbor& e : frag.OutNeighbors(lid)) {
          if (frag.IsInner(e.local)) next.Set(e.local);
        }
        if (Prog::kGatherBoth) {
          for (const FragNeighbor& e : frag.InNeighbors(lid)) {
            if (frag.IsInner(e.local)) next.Set(e.local);
          }
        }
      }
    }
    // Merge locally re-activated vertices scheduled last round.
    active.ForEach([&next](size_t v) { next.Set(v); });
    active.Clear();

    // (1) Gather + (2) Apply for the active set; (3) Scatter activations.
    std::vector<std::pair<VertexId, Val>>& ghost_updates =
        pending_ghosts_[i];
    ghost_updates.clear();
    Bitset scheduled(frag.num_inner());
    next.ForEach([&](size_t v_index) {
      auto v = static_cast<LocalId>(v_index);
      auto total = prog_.IdentityGather();
      for (const FragNeighbor& e : frag.InNeighbors(v)) {
        total = prog_.Merge(total, prog_.Gather(e, vals[e.local]));
      }
      if (Prog::kGatherBoth && frag.is_directed()) {
        for (const FragNeighbor& e : frag.OutNeighbors(v)) {
          total = prog_.Merge(total, prog_.Gather(e, vals[e.local]));
        }
      }
      if (!prog_.Apply(vals[v], total)) return;
      // Value changed: activate local out-neighbours now, remote replicas
      // via ghost updates.
      for (const FragNeighbor& e : frag.OutNeighbors(v)) {
        if (frag.IsInner(e.local)) scheduled.Set(e.local);
      }
      if (Prog::kGatherBoth && frag.is_directed()) {
        for (const FragNeighbor& e : frag.InNeighbors(v)) {
          if (frag.IsInner(e.local)) scheduled.Set(e.local);
        }
      }
      if (frag.IsBorder(v)) {
        ghost_updates.emplace_back(frag.Gid(v), vals[v]);
      }
    });
    scheduled.ForEach([&active](size_t v) { active.Set(v); });
    return Status::OK();
  }

  /// Ships the ghost updates buffered by ComputeRound, one batch per
  /// replica fragment.
  Status ShipGhostUpdates(FragmentId i) {
    const Fragment& frag = fg_.fragments[i];
    std::vector<std::pair<VertexId, Val>>& ghost_updates = pending_ghosts_[i];
    if (ghost_updates.empty()) return Status::OK();
    std::vector<std::vector<const std::pair<VertexId, Val>*>> per_dst(
        fg_.num_fragments());
    for (const auto& update : ghost_updates) {
      LocalId lid = frag.Lid(update.first);
      for (FragmentId dst : frag.MirrorFragments(lid)) {
        per_dst[dst].push_back(&update);
      }
    }
    for (FragmentId dst = 0; dst < fg_.num_fragments(); ++dst) {
      if (per_dst[dst].empty()) continue;
      Encoder enc;
      enc.WriteVarint(per_dst[dst].size());
      for (const auto* update : per_dst[dst]) {
        enc.WriteU32(update->first);
        EncodeValue(enc, update->second);
      }
      GRAPE_RETURN_NOT_OK(
          world_.Send(i, dst, kTagVertexMessage, enc.TakeBuffer()));
    }
    ghost_updates.clear();
    return Status::OK();
  }

  const FragmentedGraph& fg_;
  Prog prog_;
  GasOptions options_;
  CommWorld world_;
  ThreadPool pool_;

  std::vector<std::vector<Val>> values_;
  std::vector<Bitset> active_;
  std::vector<Status> statuses_;
  std::vector<std::vector<std::pair<VertexId, Val>>> pending_ghosts_;
  GasMetrics metrics_;
};

}  // namespace grape

#endif  // GRAPE_BASELINE_GAS_ENGINE_H_
