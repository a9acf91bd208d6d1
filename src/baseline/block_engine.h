#ifndef GRAPE_BASELINE_BLOCK_ENGINE_H_
#define GRAPE_BASELINE_BLOCK_ENGINE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "baseline/transport.h"
#include "partition/fragment.h"
#include "rt/comm_world.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace grape {

struct BlockMetrics {
  uint32_t supersteps = 0;
  double seconds = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t vertex_messages = 0;
};

struct BlockOptions {
  uint32_t max_supersteps = 1000000;
};

/// Block-centric ("think like a graph") engine in the Blogel mould: each
/// superstep a block program (B-compute) runs over a whole block = fragment,
/// then cross-block messages are exchanged vertex-to-vertex. Differences
/// from GRAPE that the benchmarks surface:
///   - messages go per cross-edge, uncombined, with no coordinator-side
///     aggregate-function conflict resolution;
///   - B-compute is a full local evaluation each superstep, not a bounded
///     incremental one (no IncEval).
///
/// A program Prog supplies:
///   using MessageType = ...; using VertexValueType = ...;
///   VertexValueType InitValue(VertexId gid, VertexId num_vertices) const;
///   // Returns true if the block is still active (sent or changed values).
///   bool BCompute(const Fragment& frag, std::vector<VertexValueType>& vals,
///                 const std::unordered_map<LocalId,
///                                          std::vector<MessageType>>& inbox,
///                 uint32_t superstep, VertexMessageBus<MessageType>* bus);
template <typename Prog>
class BlockCentricEngine {
 public:
  using Msg = typename Prog::MessageType;
  using Val = typename Prog::VertexValueType;

  BlockCentricEngine(const FragmentedGraph& fg, Prog prog,
                     BlockOptions options = {})
      : fg_(fg),
        prog_(std::move(prog)),
        options_(options),
        world_(fg.num_fragments()),
        pool_(fg.num_fragments()) {}

  Status Run() {
    WallTimer timer;
    metrics_ = BlockMetrics{};
    world_.ResetStats();
    const FragmentId n = fg_.num_fragments();

    values_.assign(n, {});
    buses_.clear();
    statuses_.assign(n, Status::OK());
    for (FragmentId i = 0; i < n; ++i) {
      const Fragment& frag = fg_.fragments[i];
      values_[i].resize(frag.num_inner());
      for (LocalId v = 0; v < frag.num_inner(); ++v) {
        values_[i][v] = prog_.InitValue(frag.Gid(v), frag.total_num_vertices());
      }
      buses_.emplace_back(&world_, &fg_, i);
    }

    uint32_t superstep = 0;
    uint64_t pending = 1;
    std::vector<uint8_t> block_active(n, 1);
    while (superstep < options_.max_supersteps) {
      bool any_active = pending > 0;
      for (FragmentId i = 0; i < n; ++i) any_active |= (block_active[i] != 0);
      if (!any_active && superstep > 0) break;

      // Compute and flush in separate phases so messages are only visible
      // in the next superstep (BSP delivery semantics).
      pool_.ParallelFor(0, n, [&, superstep](size_t i) {
        const Fragment& frag = fg_.fragments[i];
        std::unordered_map<LocalId, std::vector<Msg>> inbox;
        auto recv = buses_[i].Receive(frag, &inbox);
        if (!recv.ok()) {
          statuses_[i] = recv.status();
          return;
        }
        // A block runs when it has input (or in the first superstep).
        if (superstep == 0 || !inbox.empty()) {
          block_active[i] = prog_.BCompute(frag, values_[i], inbox, superstep,
                                           &buses_[i])
                                ? 1
                                : 0;
        } else {
          block_active[i] = 0;
        }
      });
      pool_.ParallelFor(0, n, [&](size_t i) {
        Status s = buses_[i].Flush();
        if (!s.ok()) statuses_[i] = s;
      });
      for (FragmentId i = 0; i < n; ++i) {
        GRAPE_RETURN_NOT_OK(statuses_[i]);
      }
      pending = 0;
      for (FragmentId i = 0; i < n; ++i) pending += world_.PendingCount(i);
      ++superstep;
      if (pending == 0) {
        bool still = false;
        for (FragmentId i = 0; i < n; ++i) still |= (block_active[i] != 0);
        if (!still) break;
      }
    }

    CommStats cs = world_.stats();
    metrics_.supersteps = superstep;
    metrics_.messages = cs.messages;
    metrics_.bytes = cs.bytes;
    for (auto& bus : buses_) metrics_.vertex_messages += bus.logical_sent();
    metrics_.seconds = timer.ElapsedSeconds();
    return Status::OK();
  }

  const Val& ValueOf(VertexId gid) const {
    FragmentId f = (*fg_.owner)[gid];
    LocalId lid = fg_.fragments[f].Lid(gid);
    return values_[f][lid];
  }

  const BlockMetrics& metrics() const { return metrics_; }

 private:
  const FragmentedGraph& fg_;
  Prog prog_;
  BlockOptions options_;
  CommWorld world_;
  ThreadPool pool_;

  std::vector<std::vector<Val>> values_;
  std::vector<VertexMessageBus<Msg>> buses_;
  std::vector<Status> statuses_;
  BlockMetrics metrics_;
};

}  // namespace grape

#endif  // GRAPE_BASELINE_BLOCK_ENGINE_H_
