#ifndef GRAPE_RT_TCP_TRANSPORT_H_
#define GRAPE_RT_TCP_TRANSPORT_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rt/cluster.h"
#include "rt/transport.h"
#include "util/result.h"
#include "util/status.h"

namespace grape {

/// Options for TcpTransport::Create. The default — an empty roster — is
/// single-host auto-spawn: every endpoint is forked locally and the whole
/// mesh lives on loopback with ephemeral ports (what CI smokes). A
/// non-empty roster (one HostPort per rank, see ClusterSpec in
/// rt/cluster.h) switches to cluster mode: only rank 0's endpoint is
/// forked locally; the others are standalone processes started on their
/// machines via RunClusterEndpoint, and the rendezvous listener binds
/// hosts[0].port so they can find us.
struct TcpOptions {
  std::vector<HostPort> hosts;
  /// Budget for the whole rendezvous (all endpoints dialed in and the
  /// roster handed out). Generous by default: in cluster mode remote
  /// ranks may be launched by hand.
  int rendezvous_timeout_ms = 30000;
  /// Shared-secret rank admission (drivers resolve --cluster-token /
  /// GRAPE_CLUSTER_TOKEN here). When non-empty, every rendezvous and mesh
  /// hello carries an 8-byte digest of the token, verified before the
  /// connection can claim a rank — a process that does not know the token
  /// is dropped like any other malformed hello, and never admitted to the
  /// world. Empty (the default) disables the check and keeps every hello
  /// byte-identical to the historical wire format. Endpoints must be
  /// launched with the same token (RunClusterEndpoint / --cluster-token).
  std::string cluster_token;
};

/// Multi-process Transport backend over TCP. Every rank's endpoint is its
/// own OS process holding a full-mesh of TCP connections, whether forked
/// on this machine (loopback) or launched across a cluster roster, and
/// every message crosses the mesh as a 16-byte FrameHeader frame
/// (core/codec.h), so CommStats counted bytes remain wire bytes and a
/// fixed workload reports bit-identical counters on inproc and tcp.
///
/// Topology, for a world of n ranks:
///
///   Send(from, to)        endpoint `from`        endpoint `to`     parent
///   ─ frame ─────────▶  demux by header.to  ─▶  TCP mesh conn  ─▶ link `to`
///     [link `from`]      onto mesh conns         relays frames     receiver
///                                                up its link       thread →
///                                                                  mailbox
///
///  * Rendezvous: the engine process listens (the "rank-0 listener");
///    every endpoint dials it, reports its mesh listener's bound address,
///    and receives the frozen rank→address roster back on the same
///    connection, which then becomes that rank's bidirectional frame
///    link (engine→endpoint: frames Sent from that rank;
///    endpoint→engine: frames delivered to it).
///  * Mesh: after the roster, rank r dials every rank below it and
///    accepts from every rank above it — one TCP connection per
///    unordered pair, full duplex, so FIFO per ordered (from, to)
///    channel is the stream guarantee end to end: link `from` orders the
///    engine's sends, the (from, to) mesh direction preserves it, and
///    link `to` orders delivery.
///  * Framing is hardened against the stream realities loopback hides:
///    writev-gathered header+payload writes with short-write loops on
///    the send side, and an incremental FrameDecoder (rt/frame_decoder.h)
///    on the receive side that accepts split headers, coalesced frames,
///    and 1-byte arrivals. A dead endpoint surfaces as Unavailable from
///    Send/Flush within a bounded time — never a hang (frozen by
///    tests/transport_fault_test.cc).
///
/// Under remote compute (EngineOptions::remote_app), an endpoint is more
/// than a relay: worker-protocol frames addressed to its rank drive an
/// in-process RemoteWorkerHost running that fragment's PEval/IncEval, so
/// in cluster mode compute executes on the worker's machine. Rank 0's
/// endpoint always stays a pure relay fronting the engine.
///
/// Forked endpoint children run only async-signal-safe code (raw
/// syscalls over memory preallocated before fork), so construction is
/// safe in a multi-threaded parent; the single exception is a lazily
/// created worker host on the first kTagWkLoad frame (remote compute
/// only), which relies on glibc's fork handlers keeping malloc usable.
class TcpTransport final : public MailboxTransport {
 public:
  static Result<std::unique_ptr<TcpTransport>> Create(uint32_t size,
                                                      TcpOptions options = {});

  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  std::string name() const override { return "tcp"; }

  /// Endpoint processes host remote-compute workers themselves.
  bool has_remote_endpoints() const override { return true; }

  Status Send(uint32_t from, uint32_t to, uint32_t tag,
              std::vector<uint8_t> payload) override;

  /// Blocks until every frame accepted by Send has crossed the mesh and
  /// been parsed back into its destination mailbox.
  Status Flush() override;

  void Close() override;

  /// Locally forked endpoint process ids (all ranks in auto-spawn mode,
  /// only rank 0 in cluster mode), for tests that kill real endpoints.
  const std::vector<pid_t>& endpoint_pids() const { return children_; }

  /// Auto-spawn forks one endpoint per rank in rank order. Cluster-mode
  /// remote ranks are other machines' processes — not probeable here.
  std::vector<int64_t> endpoint_process_ids() const override {
    if (cluster_) return {};
    return std::vector<int64_t>(children_.begin(), children_.end());
  }

  /// Auto-spawn worlds can be rebuilt whole: every endpoint is a local
  /// fork, so recovery kills the lot, drains the receivers, and reruns the
  /// constructor-time Init (fresh rendezvous, fresh mesh, fresh forks).
  /// Cluster worlds cannot — the remote RunClusterEndpoint processes are
  /// launched out-of-band and cannot be respawned from here, so Recover
  /// reports Unavailable and the failure surfaces to the caller.
  bool supports_recovery() const override { return !cluster_; }
  Status Recover() override;

 private:
  /// Per-rank frame link: parent-side fd of the rendezvous connection.
  /// Serialized writers; the receiver thread owns the read half.
  struct Link {
    std::mutex mu;
    int fd = -1;
    bool shut = false;  // Close() shut the write side
  };

  explicit TcpTransport(uint32_t size);

  Status Init(const TcpOptions& options);
  void ReceiverLoop(uint32_t rank);
  void MarkBroken(const char* what);
  void ReapChildren();

  std::vector<std::unique_ptr<Link>> links_;  // one per rank
  std::vector<pid_t> children_;
  std::vector<std::thread> receivers_;
  TcpOptions options_;    // kept so Recover can rerun Init verbatim
  bool cluster_ = false;  // non-empty roster: endpoints launched remotely

  // Flush barrier: frames accepted by Send vs. frames parsed into
  // mailboxes by receiver threads.
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_delivered_{0};
  std::atomic<bool> broken_{false};  // an endpoint died with frames in flight

  std::once_flag close_once_;
};

/// Runs rank `rank`'s endpoint in THIS process (cluster mode, rank > 0):
/// binds the mesh listener on `mesh_bind_port` (0 = ephemeral), joins the
/// rendezvous at `coordinator`, relays frames until the coordinator shuts
/// the mesh down. Blocks for the lifetime of the world. Used by
/// RunClusterEndpoint (rt/cluster.h); exposed here so the endpoint logic
/// has exactly one implementation, shared with the forked children.
Status RunTcpEndpointProcess(uint32_t rank, uint32_t world_size,
                             const HostPort& coordinator,
                             uint16_t mesh_bind_port, int timeout_ms,
                             const std::string& cluster_token = "");

}  // namespace grape

#endif  // GRAPE_RT_TCP_TRANSPORT_H_
