#ifndef GRAPE_BASELINE_VC_ENGINE_H_
#define GRAPE_BASELINE_VC_ENGINE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "baseline/transport.h"
#include "partition/fragment.h"
#include "rt/comm_world.h"
#include "util/bitset.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace grape {

/// Per-vertex execution context handed to Compute (the Pregel API surface).
template <typename Prog>
class VcContext {
 public:
  using Msg = typename Prog::MessageType;
  using Val = typename Prog::VertexValueType;

  VcContext(const Fragment& frag, LocalId lid, uint32_t superstep, Val* value,
            VertexMessageBus<Msg>* bus, bool* halted)
      : frag_(frag),
        lid_(lid),
        superstep_(superstep),
        value_(value),
        bus_(bus),
        halted_(halted) {}

  VertexId Id() const { return frag_.Gid(lid_); }
  uint32_t Superstep() const { return superstep_; }
  Val& Value() { return *value_; }

  std::span<const FragNeighbor> OutEdges() const {
    return frag_.OutNeighbors(lid_);
  }
  std::span<const FragNeighbor> InEdges() const {
    return frag_.InNeighbors(lid_);
  }
  VertexId GidOf(LocalId lid) const { return frag_.Gid(lid); }
  VertexId NumVertices() const { return frag_.total_num_vertices(); }

  void SendTo(VertexId dst, const Msg& msg) {
    if constexpr (Prog::kHasCombiner) {
      bus_->SendCombined(dst, msg, &Prog::Combine);
    } else {
      bus_->Send(dst, msg);
    }
  }

  void VoteToHalt() { *halted_ = true; }

 private:
  const Fragment& frag_;
  LocalId lid_;
  uint32_t superstep_;
  Val* value_;
  VertexMessageBus<Msg>* bus_;
  bool* halted_;
};

struct VcMetrics {
  uint32_t supersteps = 0;
  double seconds = 0;
  uint64_t messages = 0;         // transport batches (wire messages)
  uint64_t bytes = 0;            // wire bytes
  uint64_t vertex_messages = 0;  // logical vertex-to-vertex messages
};

struct VcOptions {
  uint32_t max_supersteps = 1000000;
};

/// Synchronous vertex-centric ("think like a vertex") engine in the
/// Pregel/Giraph mould, sharing the graph substrate and transport with
/// GRAPE so that Table 1 comparisons isolate the programming/execution
/// model: per-vertex Compute with vote-to-halt, per-edge messages (with
/// sender-side combiners when the program provides one) and no incremental
/// whole-fragment evaluation.
///
/// A program Prog supplies:
///   using MessageType = ...; using VertexValueType = ...;
///   static constexpr bool kHasCombiner = ...;
///   static MessageType Combine(const MessageType&, const MessageType&);
///   VertexValueType InitValue(VertexId gid, VertexId num_vertices) const;
///   void Compute(VcContext<Prog>& ctx, const std::vector<MessageType>&);
template <typename Prog>
class VertexCentricEngine {
 public:
  using Msg = typename Prog::MessageType;
  using Val = typename Prog::VertexValueType;

  VertexCentricEngine(const FragmentedGraph& fg, Prog prog,
                      VcOptions options = {})
      : fg_(fg),
        prog_(std::move(prog)),
        options_(options),
        world_(fg.num_fragments()),
        pool_(fg.num_fragments()) {}

  /// Runs to quiescence; per-vertex values are read back with values().
  Status Run() {
    WallTimer timer;
    metrics_ = VcMetrics{};
    world_.ResetStats();
    const FragmentId n = fg_.num_fragments();

    values_.assign(n, {});
    halted_.assign(n, {});
    buses_.clear();
    statuses_.assign(n, Status::OK());
    for (FragmentId i = 0; i < n; ++i) {
      const Fragment& frag = fg_.fragments[i];
      values_[i].resize(frag.num_inner());
      for (LocalId v = 0; v < frag.num_inner(); ++v) {
        values_[i][v] = prog_.InitValue(frag.Gid(v), frag.total_num_vertices());
      }
      halted_[i].assign(frag.num_inner(), false);
      buses_.emplace_back(&world_, &fg_, i);
    }

    uint64_t active_total = 1;
    uint64_t received_total = 1;
    uint32_t superstep = 0;
    while ((active_total > 0 || received_total > 0) &&
           superstep < options_.max_supersteps) {
      std::vector<uint64_t> active(n, 0);
      std::vector<uint64_t> received(n, 0);
      // Phase 1: receive + compute. Outgoing messages stay buffered so a
      // message can never be consumed in the superstep that produced it
      // (BSP delivery semantics).
      pool_.ParallelFor(0, n, [&, superstep](size_t i) {
        const Fragment& frag = fg_.fragments[i];
        std::unordered_map<LocalId, std::vector<Msg>> inbox;
        auto recv = buses_[i].Receive(frag, &inbox);
        if (!recv.ok()) {
          statuses_[i] = recv.status();
          return;
        }
        received[i] = *recv;
        const std::vector<Msg> kNoMsgs;
        for (LocalId v = 0; v < frag.num_inner(); ++v) {
          auto it = inbox.find(v);
          const bool has_msgs = it != inbox.end();
          if (has_msgs) halted_[i][v] = false;  // message reactivates
          if (superstep == 0 || !halted_[i][v]) {
            bool halt = false;
            VcContext<Prog> ctx(frag, v, superstep, &values_[i][v],
                                &buses_[i], &halt);
            prog_.Compute(ctx, has_msgs ? it->second : kNoMsgs);
            halted_[i][v] = halt;
            if (!halt) ++active[i];
          }
        }
      });
      // Phase 2 (after the implicit barrier): ship buffered messages.
      pool_.ParallelFor(0, n, [&](size_t i) {
        Status s = buses_[i].Flush();
        if (!s.ok()) statuses_[i] = s;
      });
      for (FragmentId i = 0; i < n; ++i) {
        GRAPE_RETURN_NOT_OK(statuses_[i]);
      }
      active_total = 0;
      received_total = 0;
      for (FragmentId i = 0; i < n; ++i) active_total += active[i];
      // Messages produced this superstep are pending in mailboxes.
      for (FragmentId i = 0; i < n; ++i) {
        received_total += world_.PendingCount(i);
      }
      ++superstep;
    }

    CommStats cs = world_.stats();
    metrics_.supersteps = superstep;
    metrics_.messages = cs.messages;
    metrics_.bytes = cs.bytes;
    for (auto& bus : buses_) metrics_.vertex_messages += bus.logical_sent();
    metrics_.seconds = timer.ElapsedSeconds();
    return Status::OK();
  }

  /// value of `gid` after Run().
  const Val& ValueOf(VertexId gid) const {
    FragmentId f = (*fg_.owner)[gid];
    LocalId lid = fg_.fragments[f].Lid(gid);
    return values_[f][lid];
  }

  const VcMetrics& metrics() const { return metrics_; }

 private:
  const FragmentedGraph& fg_;
  Prog prog_;
  VcOptions options_;
  CommWorld world_;
  ThreadPool pool_;

  std::vector<std::vector<Val>> values_;
  std::vector<std::vector<bool>> halted_;
  std::vector<VertexMessageBus<Msg>> buses_;
  std::vector<Status> statuses_;
  VcMetrics metrics_;
};

}  // namespace grape

#endif  // GRAPE_BASELINE_VC_ENGINE_H_
