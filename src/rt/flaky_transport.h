#ifndef GRAPE_RT_FLAKY_TRANSPORT_H_
#define GRAPE_RT_FLAKY_TRANSPORT_H_

#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rt/transport.h"
#include "util/random.h"

namespace grape {

/// Fault plan for FlakyTransport. Rates are per-message probabilities
/// drawn from a seeded Rng, so a given (plan, seed, workload) misbehaves
/// reproducibly.
struct FlakyOptions {
  double drop_rate = 0.0;   // message vanishes; the inner transport and
                            // its stats never see it
  double dup_rate = 0.0;    // message is delivered twice
  double delay_rate = 0.0;  // message is held back one Flush epoch
  uint64_t seed = 42;
  /// When non-zero, Send starts failing with Unavailable after this many
  /// accepted sends — the hard-fault knob for error-propagation tests.
  uint64_t fail_send_after = 0;
  /// When non-zero, Flush starts failing with Unavailable after this many
  /// successful barriers — models an endpoint dying between supersteps
  /// (what a killed tcp endpoint process looks like from the
  /// engine), so the barrier propagation path gets its own coverage.
  uint64_t fail_flush_after = 0;
  /// Deterministic crash knob: after this many accepted sends the whole
  /// world "dies" — Send and Flush fail with Unavailable, healthy() goes
  /// false, and every blocked Recv wakes with Unavailable once its
  /// mailbox is drained, as on a real broken transport — until Recover()
  /// heals it. One-shot: recovery disarms the knob, so the retried run
  /// proceeds cleanly. This is the SIGKILL-without-the-timing-race
  /// primitive the recovery tests build their superstep-k crash matrix on.
  uint64_t kill_after_frames = 0;
  /// One-shot partition: after `partition_after_frames` accepted sends,
  /// the next `partition_heal_frames` send attempts fail with Unavailable
  /// (the frames are lost, as on a real partition), then the link heals
  /// by itself — no Recover() needed. healthy() stays true throughout:
  /// a partition is not a death.
  uint64_t partition_after_frames = 0;
  uint64_t partition_heal_frames = 0;
};

/// Fault-injection decorator over any Transport: drops, duplicates, and
/// delays messages by seed, and can turn Send into a hard failure. Used by
/// tests/transport_fault_test.cc to prove the engine surfaces Status
/// errors (through DispatchSends/CoordinatorRoute) instead of hanging on a
/// misbehaving substrate.
///
/// Delay semantics: a delayed message is withheld from the inner transport
/// until the *next* Flush call (one barrier epoch late — exactly the
/// reordering a congested network produces between supersteps). Note that
/// this deliberately violates the Transport Flush contract, so a delayed
/// message can still be in flight when the engine's fixpoint check fires;
/// tests assert liveness and monotone degradation, not exact results.
/// Messages still held at Close are dropped.
class FlakyTransport final : public Transport {
 public:
  FlakyTransport(Transport* inner, FlakyOptions options)
      : inner_(inner), options_(options), rng_(options.seed) {}

  uint32_t size() const override { return inner_->size(); }
  std::string name() const override { return "flaky+" + inner_->name(); }

  Status Send(uint32_t from, uint32_t to, uint32_t tag,
              std::vector<uint8_t> payload) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (killed_) {
      return Status::Unavailable("injected world death (kill_after_frames)");
    }
    if (options_.fail_send_after != 0 &&
        accepted_ >= options_.fail_send_after) {
      return Status::Unavailable("injected send failure after " +
                                 std::to_string(accepted_) + " sends");
    }
    if (options_.kill_after_frames != 0 &&
        accepted_ >= options_.kill_after_frames) {
      killed_ = true;
      for (uint32_t rank = 0; rank < inner_->size(); ++rank) {
        inner_->Wake(rank);
      }
      return Status::Unavailable("injected world death after " +
                                 std::to_string(accepted_) + " frames");
    }
    if (options_.partition_after_frames != 0 &&
        accepted_ >= options_.partition_after_frames &&
        partition_lost_ < options_.partition_heal_frames) {
      ++partition_lost_;
      ++accepted_;
      return Status::Unavailable("injected partition (frame " +
                                 std::to_string(partition_lost_) + "/" +
                                 std::to_string(
                                     options_.partition_heal_frames) +
                                 " lost before heal)");
    }
    ++accepted_;
    const double roll = rng_.NextDouble();
    if (roll < options_.drop_rate) {
      ++dropped_;
      return Status::OK();
    }
    if (roll < options_.drop_rate + options_.dup_rate) {
      ++duplicated_;
      std::vector<uint8_t> copy = payload;
      GRAPE_RETURN_NOT_OK(inner_->Send(from, to, tag, std::move(copy)));
      return inner_->Send(from, to, tag, std::move(payload));
    }
    if (roll < options_.drop_rate + options_.dup_rate + options_.delay_rate) {
      ++delayed_;
      pending_.push_back(RtMessage{from, to, tag, std::move(payload)});
      return Status::OK();
    }
    return inner_->Send(from, to, tag, std::move(payload));
  }

  /// Releases messages delayed before the previous Flush, then holds this
  /// epoch's batch for the next one.
  Status Flush() override {
    std::vector<RtMessage> due;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (killed_) {
        return Status::Unavailable(
            "injected world death (kill_after_frames)");
      }
      if (options_.fail_flush_after != 0 &&
          flushed_ >= options_.fail_flush_after) {
        return Status::Unavailable("injected flush failure after " +
                                   std::to_string(flushed_) + " barriers");
      }
      ++flushed_;
      due.swap(held_);
      held_.swap(pending_);
    }
    for (RtMessage& msg : due) {
      GRAPE_RETURN_NOT_OK(
          inner_->Send(msg.from, msg.to, msg.tag, std::move(msg.payload)));
    }
    return inner_->Flush();
  }

  std::optional<RtMessage> TryRecv(uint32_t rank) override {
    return inner_->TryRecv(rank);
  }
  std::optional<RtMessage> TryRecv(uint32_t rank, uint32_t tag) override {
    return inner_->TryRecv(rank, tag);
  }
  /// A killed world still hands out what was delivered before the kill,
  /// then reports the death instead of blocking.
  Result<RtMessage> Recv(uint32_t rank, RecvDeadline deadline) override {
    if (!killed()) {
      Result<RtMessage> msg = inner_->Recv(rank, deadline);
      if (msg.ok() || !killed()) return msg;
    }
    if (std::optional<RtMessage> msg = inner_->TryRecv(rank)) {
      return std::move(*msg);
    }
    return Status::Unavailable("injected world death (kill_after_frames)");
  }
  void Wake(uint32_t rank) override { inner_->Wake(rank); }
  std::vector<RtMessage> DrainAll(uint32_t rank) override {
    return inner_->DrainAll(rank);
  }
  size_t PendingCount(uint32_t rank) const override {
    return inner_->PendingCount(rank);
  }
  void Close() override { inner_->Close(); }
  bool healthy() const override { return !killed() && inner_->healthy(); }
  bool supports_recovery() const override {
    return inner_->supports_recovery();
  }
  /// Heals an injected death (disarming the one-shot kill knob) and
  /// recovers the inner world. Held/delayed frames of the failed run are
  /// dropped — exactly what a rebuilt real transport does.
  Status Recover() override {
    GRAPE_RETURN_NOT_OK(inner_->Recover());
    std::lock_guard<std::mutex> lock(mu_);
    killed_ = false;
    options_.kill_after_frames = 0;
    pending_.clear();
    held_.clear();
    return Status::OK();
  }
  bool has_remote_endpoints() const override {
    return inner_->has_remote_endpoints();
  }
  std::vector<int64_t> endpoint_process_ids() const override {
    return inner_->endpoint_process_ids();
  }
  CommStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  BufferPool& buffer_pool() override { return inner_->buffer_pool(); }

  uint64_t dropped() const { return dropped_; }
  uint64_t duplicated() const { return duplicated_; }
  uint64_t delayed() const { return delayed_; }
  /// Sends accepted so far — what crash tests calibrate kill_after_frames
  /// against (a clean run's total gives the frame budget to kill inside).
  uint64_t accepted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return accepted_;
  }

 private:
  bool killed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return killed_;
  }

  Transport* inner_;  // not owned; must outlive this decorator
  FlakyOptions options_;
  mutable std::mutex mu_;
  Rng rng_;
  bool killed_ = false;
  uint64_t partition_lost_ = 0;
  uint64_t accepted_ = 0;
  uint64_t flushed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t delayed_ = 0;
  std::vector<RtMessage> pending_;  // delayed in the current epoch
  std::vector<RtMessage> held_;     // due at the next Flush
};

}  // namespace grape

#endif  // GRAPE_RT_FLAKY_TRANSPORT_H_
