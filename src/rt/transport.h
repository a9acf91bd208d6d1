#ifndef GRAPE_RT_TRANSPORT_H_
#define GRAPE_RT_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rt/message.h"
#include "util/result.h"
#include "util/status.h"

namespace grape {

/// When a blocking Recv gives up; kNoDeadline waits without limit.
using RecvDeadline = std::chrono::steady_clock::time_point;
inline constexpr RecvDeadline kNoDeadline = RecvDeadline::max();

/// Aggregate communication counters. Every byte crossing a rank boundary is
/// counted here; benchmark "Comm." columns read these. All backends count
/// identically — payload bytes plus a 16-byte envelope per message — so the
/// numbers are comparable (and, for a fixed workload, bit-identical) across
/// transports.
struct CommStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;

  double megabytes() const { return static_cast<double>(bytes) / (1 << 20); }
  std::string ToString() const;
};

/// The message-passing substrate under the engine: a world of `size` ranks
/// with reliable point-to-point channels, FIFO per (from, to) channel, in
/// place of the paper's MPI Controller (MPICH2). Rank 0 is conventionally
/// the coordinator P0.
///
/// Contract, shared by every backend and frozen by
/// tests/transport_conformance_test.cc:
///
///  * Send is thread-safe and never blocks indefinitely against a live
///    receiver. FIFO holds per ordered (from, to) channel; no ordering is
///    promised across channels.
///  * Delivery may be asynchronous. Flush() is the delivery barrier: when
///    it returns OK, every message from a Send that returned before the
///    Flush call is visible to TryRecv/DrainAll/PendingCount at its
///    destination. The in-process backend delivers synchronously, so its
///    Flush is a no-op; callers must still invoke it to be
///    backend-agnostic (the engine flushes between supersteps).
///  * TryRecv/DrainAll never block. Recv blocks until a message arrives,
///    the transport is closed or broken (an endpoint died), Wake is
///    called for its rank, or its deadline passes, whichever comes first;
///    only a delivered message makes it return OK. Awaits block here, so
///    a dead endpoint reaches them as a woken Recv.
///  * Close() is idempotent, wakes every blocked Recv with Cancelled, and
///    fails subsequent Sends with Cancelled. Messages already delivered
///    remain drainable after Close, and Recv returns them first.
///  * stats() counts at Send time: +1 message, +payload+16 bytes.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual uint32_t size() const = 0;

  /// Backend identifier ("inproc", "tcp") for logs and reports.
  virtual std::string name() const = 0;

  /// Queues `payload` for delivery to `to`. Thread-safe.
  virtual Status Send(uint32_t from, uint32_t to, uint32_t tag,
                      std::vector<uint8_t> payload) = 0;

  /// Non-blocking receive: pops the oldest delivered message for `rank`
  /// (optionally filtered by tag); std::nullopt if none is pending.
  virtual std::optional<RtMessage> TryRecv(uint32_t rank) = 0;
  virtual std::optional<RtMessage> TryRecv(uint32_t rank, uint32_t tag) = 0;

  /// Blocking receive: pops the oldest delivered message for `rank`,
  /// waiting for one until `deadline` (kNoDeadline: without limit). With
  /// the mailbox empty it returns Cancelled once the transport is closed
  /// or broken, or when Wake(rank) was called; Unavailable once the
  /// deadline passes. Callers tell these apart by healthy() and the clock.
  virtual Result<RtMessage> Recv(uint32_t rank, RecvDeadline deadline) = 0;

  /// Wakes a Recv blocked on `rank`'s mailbox, or the next one to block
  /// there if none is: a wake is kept until a Recv consumes it, so a wake
  /// that races the receiver's own stop check is never lost. Decorators
  /// forward it. Lets a receiver that waits without a deadline be stopped
  /// even when the frames it would otherwise be sent may be dropped.
  virtual void Wake(uint32_t rank) = 0;

  /// Drains every pending message for `rank`, in delivery order.
  virtual std::vector<RtMessage> DrainAll(uint32_t rank) = 0;

  virtual size_t PendingCount(uint32_t rank) const = 0;

  /// Delivery barrier: blocks until everything Sent so far is visible at
  /// its destination (see class contract). Returns non-OK if the transport
  /// was closed or an endpoint died while messages were in flight.
  virtual Status Flush() = 0;

  /// Shuts the transport down: wakes blocked receivers with Cancelled and
  /// fails future Sends. Idempotent; also called by destructors.
  virtual void Close() = 0;

  /// False once the transport is closed or broken (an endpoint died).
  /// A Recv that returns without a message consults this to tell a dead
  /// world from a deadline or a Wake.
  virtual bool healthy() const { return true; }

  /// True when ranks are backed by endpoint OS processes that host
  /// remote-compute workers themselves (tcp). False for in-process
  /// backends, where the engine spawns in-thread workers instead.
  virtual bool has_remote_endpoints() const { return false; }

  /// True when this backend can rebuild a broken world in place (respawn
  /// dead endpoints, clear mailboxes) so the engine's fault-tolerant path
  /// can retry a run. Backends without it surface the original failure.
  virtual bool supports_recovery() const { return false; }

  /// Tears down whatever is left of a broken world and brings up a fresh
  /// healthy one of the same size, in place: endpoints respawned,
  /// channels reconnected, mailboxes cleared (in-flight frames of the
  /// failed run are discarded — recovery replays from a checkpoint), and
  /// healthy() true again. Stats are NOT reset; the engine handles
  /// counter continuity itself. Only call between runs/rounds, never
  /// concurrently with Send/Recv.
  virtual Status Recover() {
    return Status::Unimplemented("transport '" + name() +
                                 "' does not support recovery");
  }

  /// Process ids of locally forked endpoint processes, indexed by rank,
  /// for harnesses that measure or kill endpoints. The engine never reads
  /// them: a killed endpoint reaches it as a broken link. Empty when the
  /// backend has no local endpoint processes (inproc, tcp cluster mode).
  virtual std::vector<int64_t> endpoint_process_ids() const { return {}; }

  /// Global counters since construction or the last ResetStats().
  virtual CommStats stats() const = 0;
  virtual void ResetStats() = 0;

  /// Payload recycling shared by every rank: encode into Acquire()d
  /// buffers, Release() consumed payloads. Using the pool is optional —
  /// Send accepts any vector — but the engine's message path routes every
  /// payload through it so steady-state supersteps allocate nothing.
  virtual BufferPool& buffer_pool() = 0;
};

/// Shared machinery for transports that deliver into per-rank in-memory
/// mailboxes (both backends do; they differ in how bytes travel from Send
/// to Deliver). Implements the receive half of the Transport contract plus
/// stats, the buffer pool, and Close-wakes-receivers semantics.
class MailboxTransport : public Transport {
 public:
  uint32_t size() const override { return size_; }

  std::optional<RtMessage> TryRecv(uint32_t rank) override;
  std::optional<RtMessage> TryRecv(uint32_t rank, uint32_t tag) override;
  Result<RtMessage> Recv(uint32_t rank, RecvDeadline deadline) override;
  void Wake(uint32_t rank) override;
  std::vector<RtMessage> DrainAll(uint32_t rank) override;
  size_t PendingCount(uint32_t rank) const override;

  CommStats stats() const override;
  void ResetStats() override;
  BufferPool& buffer_pool() override { return pool_; }
  bool healthy() const override { return !closed(); }

 protected:
  explicit MailboxTransport(uint32_t size);

  /// Enqueues a message into its destination mailbox and wakes blocked
  /// receivers. Thread-safe; called by Send (inproc) or by receiver
  /// threads (tcp).
  void Deliver(RtMessage msg);

  /// Stats attribution at Send time, identical across backends.
  void CountSend(size_t payload_bytes) {
    total_messages_.fetch_add(1, std::memory_order_relaxed);
    // Envelope overhead approximates an MPI header: from/to/tag + length.
    total_bytes_.fetch_add(payload_bytes + kEnvelopeBytes,
                           std::memory_order_relaxed);
  }

  /// Tag-aware counting: worker-protocol control frames are invisible to
  /// CommStats (they have no local-compute equivalent; see
  /// rt/worker_protocol.h), so remote compute reports the same counters
  /// as local compute. Backends call this instead of CountSend.
  void CountSendTagged(uint32_t tag, size_t payload_bytes);

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Marks the transport closed and wakes every blocked Recv. Returns
  /// false when another caller already closed it (for idempotent Close).
  bool MarkClosed();

  /// Recovery support: empties every mailbox (releasing payloads back to
  /// the pool), drops unconsumed wakes and clears the closed flag,
  /// returning the mailbox layer to its just-constructed state. Backends
  /// call this from Recover() after tearing down their transport-specific
  /// halves.
  void ResetForRecovery();

  static constexpr size_t kEnvelopeBytes = 16;

 private:
  struct Mailbox {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<RtMessage> queue;
    bool woken = false;  // a Wake no Recv has consumed yet
  };

  uint32_t size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  BufferPool pool_;
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> total_messages_{0};
  std::atomic<uint64_t> total_bytes_{0};
};

/// Builds a transport backend by name: "inproc" (CommWorld, the default
/// single-process world) or "tcp" (auto-spawned endpoint processes
/// meshed over loopback TCP; for a multi-machine roster use
/// rt/cluster.h's MakeClusterTransport). This is what
/// `--transport=inproc|tcp` on the benches and examples resolves
/// through.
Result<std::unique_ptr<Transport>> MakeTransport(const std::string& name,
                                                 uint32_t size);

/// Names accepted by MakeTransport, for --help strings and test matrices.
const std::vector<std::string>& TransportNames();

}  // namespace grape

#endif  // GRAPE_RT_TRANSPORT_H_
