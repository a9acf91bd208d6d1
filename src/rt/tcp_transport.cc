#include "rt/tcp_transport.h"

#include <arpa/inet.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "core/codec.h"
#include "rt/fd_registry.h"
#include "rt/frame_decoder.h"
#include "rt/net_util.h"
#include "rt/remote_worker.h"
#include "rt/retry.h"
#include "rt/worker_protocol.h"

namespace grape {
namespace {

// ---------------------------------------------------------------------------
// Rendezvous wire protocol. Everything is fixed-size so the forked
// endpoint children can parse it with preallocated buffers only.
//
//   hello  (endpoint -> rank-0 listener), 12 bytes:
//     u32 magic, u32 rank, u32 mesh listener port (host value)
//   roster (rank-0 listener -> endpoint), 8 + n*8 bytes:
//     u32 magic, u32 n, then per rank: 4 raw bytes of in_addr (network
//     order), 2 raw bytes of in_port (network order), 2 zero bytes
//   mesh hello (dialing endpoint -> accepting endpoint), 8 bytes:
//     u32 magic, u32 dialer's rank
//
// When TcpOptions::cluster_token is set, both hellos are followed by an
// 8-byte token digest (u64, little endian) that the accepting side
// verifies before the connection can claim a rank: anyone can speak the
// 12-byte hello, so on a shared network the magic alone must not admit a
// process into the world. A missing or wrong digest is treated exactly
// like a malformed hello — dropped, loop keeps accepting — so an
// impostor cannot take a rank OR abort a legitimate launch. An empty
// token (the default) adds no bytes anywhere: the wire format stays
// byte-identical to the unauthenticated protocol.
//
// After the roster, the rendezvous connection carries nothing but
// FrameHeader frames in both directions for the life of the world.
// ---------------------------------------------------------------------------

constexpr uint32_t kHelloMagic = 0x43505247;   // "GRPC"
constexpr uint32_t kRosterMagic = 0x4f525247;  // "GRRO"
constexpr uint32_t kMeshMagic = 0x4d525247;    // "GRRM"
constexpr size_t kHelloBytes = 12;
constexpr size_t kRosterHeaderBytes = 8;
constexpr size_t kRosterEntryBytes = 8;
constexpr size_t kMeshHelloBytes = 8;
constexpr size_t kRelayChunkBytes = 64 * 1024;

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

constexpr size_t kTokenDigestBytes = 8;

void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

/// FNV-1a over the shared secret. This is rank admission on a trusted
/// network segment, not cryptography: it keeps strangers and
/// misconfigured clusters out of the world; it does not resist an
/// attacker who can sniff a valid hello off the wire. 0 is reserved as
/// "auth disabled", so a digest that lands there is nudged off it.
uint64_t TokenDigest(const std::string& token) {
  if (token.empty()) return 0;
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : token) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

int64_t MonotonicMs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

/// Peer-death budget for a machine that stops answering without sending
/// an RST (power loss, network partition): keepalives probe an idle
/// connection and TCP_USER_TIMEOUT bounds unacknowledged sends, so the
/// endpoint/receiver sees an error within ~30s instead of waiting out
/// TCP's multi-minute retransmission schedule — this is what keeps the
/// "dead endpoint surfaces within a bounded time" contract true across
/// real machines, not just for local SIGKILLs (which RST promptly).
constexpr int kPeerDeathTimeoutMs = 30000;

/// Applied to every mesh and link socket. TCP_NODELAY because frames are
/// tiny relative to TCP's coalescing timers — Nagle+delayed-ACK would add
/// ~40ms to every superstep barrier; keepalive+user-timeout per above.
void TuneSocket(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
  int idle = 10, interval = 5, count = 4;
  setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof(idle));
  setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &interval, sizeof(interval));
  setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &count, sizeof(count));
  int user_timeout = kPeerDeathTimeoutMs;
  setsockopt(fd, IPPROTO_TCP, TCP_USER_TIMEOUT, &user_timeout,
             sizeof(user_timeout));
}

/// Dials `addr`, retrying connection refusals until `deadline_ms`
/// (CLOCK_MONOTONIC): in cluster mode endpoints may come up before the
/// engine's listener. Retries back off through rt/retry.h (capped
/// exponential with jitter, seeded by the target port so a world of
/// ranks dialing the same rendezvous de-herds) instead of a fixed-rate
/// hammer. Async-signal-safe. Returns -1 past the deadline.
int ConnectWithDeadline(const sockaddr_in& addr, int64_t deadline_ms) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.max_backoff_ms = 500;
  RetryState retry(policy, static_cast<uint64_t>(deadline_ms),
                   static_cast<uint64_t>(addr.sin_port) + 1);
  for (;;) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    TuneSocket(fd);
    int rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    int err = rc == 0 ? 0 : errno;
    if (err == EINTR) {
      // The interrupted connect continues asynchronously; re-calling
      // connect() would yield EALREADY/EISCONN, not a retry. Wait for
      // the outcome — within the caller's deadline — and read it from
      // SO_ERROR.
      const int64_t remain = deadline_ms - MonotonicMs();
      const int wait_ms =
          remain <= 0 ? 0
                      : static_cast<int>(remain < kPeerDeathTimeoutMs
                                             ? remain
                                             : kPeerDeathTimeoutMs);
      struct pollfd pfd = {fd, POLLOUT, 0};
      int pr;
      do {
        pr = poll(&pfd, 1, wait_ms);
      } while (pr < 0 && errno == EINTR);
      int so_err = 0;
      socklen_t len = sizeof(so_err);
      if (pr > 0 &&
          getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err, &len) == 0) {
        err = so_err;  // 0 = the connection actually completed
      } else {
        err = ETIMEDOUT;
      }
    }
    if (err == 0) return fd;
    close(fd);
    if (err != ECONNREFUSED && err != ETIMEDOUT && err != EHOSTUNREACH &&
        err != ENETUNREACH && err != EAGAIN) {
      return -1;
    }
    if (!retry.BackoffOrGiveUp()) return -1;
  }
}

/// Reads exactly `n` bytes with an absolute CLOCK_MONOTONIC deadline
/// (poll + read). Returns false on timeout, EOF, or error. Syscall-only,
/// so both the engine's rendezvous listener and the forked endpoints'
/// mesh listeners use it to bound how long an unresponsive connection
/// can hold a join phase hostage.
bool ReadFullDeadline(int fd, uint8_t* p, size_t n, int64_t deadline_ms) {
  size_t got = 0;
  while (got < n) {
    const int64_t remain = deadline_ms - MonotonicMs();
    if (remain <= 0) return false;
    struct pollfd pfd = {fd, POLLIN, 0};
    int rc = poll(&pfd, 1, static_cast<int>(remain));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) return false;
    ssize_t k = read(fd, p + got, n - got);
    if (k <= 0) {
      if (k < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    got += static_cast<size_t>(k);
  }
  return true;
}

/// Caps a per-connection handshake read at a few seconds so one silent
/// client serializes a join phase briefly, not until the global deadline.
int64_t HandshakeDeadline(int64_t phase_deadline_ms) {
  const int64_t cap = MonotonicMs() + 5000;
  return cap < phase_deadline_ms ? cap : phase_deadline_ms;
}

/// Reads and checks the 8-byte token digest that follows a hello when
/// auth is on; reads nothing when it is off. A short read, a timeout, and
/// a mismatch all mean the same thing: not one of ours.
bool ReadTokenDigest(int fd, uint64_t expect, int64_t deadline_ms) {
  if (expect == 0) return true;
  uint8_t buf[kTokenDigestBytes];
  if (!ReadFullDeadline(fd, buf, sizeof(buf), deadline_ms)) return false;
  return GetU64(buf) == expect;
}

/// Relays one frame: reads up to one chunk of payload from `in`, gathers
/// it with the already-read header into a single writev, then streams the
/// remainder. Returns false on peer death or EOF mid-frame.
bool RelayFrame(int in, int out, const uint8_t* header, uint8_t* buf,
                size_t buf_size, size_t len) {
  const size_t first = len < buf_size ? len : buf_size;
  size_t got = 0;
  while (got < first) {
    ssize_t k = read(in, buf + got, first - got);
    if (k <= 0) {
      if (k < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    got += static_cast<size_t>(k);
  }
  struct iovec iov[2];
  iov[0].iov_base = const_cast<uint8_t*>(header);
  iov[0].iov_len = kFrameHeaderBytes;
  iov[1].iov_base = buf;
  iov[1].iov_len = got;
  if (!net::WritevFullFd(out, iov, got > 0 ? 2 : 1)) return false;
  return net::RelayPayload(in, out, buf, buf_size, len - got);
}

// ---------------------------------------------------------------------------
// The endpoint process. May be a child forked from a multi-threaded
// engine (auto-spawn and cluster rank 0), so EndpointRun only executes
// async-signal-safe code: raw syscalls over memory preallocated in the
// plan. Standalone cluster endpoints (RunTcpEndpointProcess) share the
// exact same code path.
// ---------------------------------------------------------------------------

struct EndpointPlan {
  uint32_t rank = 0;
  uint32_t n = 0;
  int64_t deadline_ms = 0;  // absolute CLOCK_MONOTONIC setup deadline
  /// TokenDigest of TcpOptions::cluster_token; 0 = auth disabled.
  /// Precomputed before fork — children only copy bytes into hellos.
  uint64_t token_digest = 0;
  sockaddr_in coord_addr{};
  sockaddr_in mesh_bind{};
  std::vector<int> close_fds;        // inherited fds this child must drop
  std::vector<uint8_t> roster_wire;  // n * kRosterEntryBytes
  std::vector<sockaddr_in> roster;   // n mesh addresses
  std::vector<int> mesh_fds;         // peer rank -> mesh fd (self: -1)
  std::vector<uint8_t> read_open;    // peer rank -> still expecting frames
  std::vector<struct pollfd> pfds;   // n + 1 slots, main relay loop
  std::vector<int> pfd_rank;         // pfds position -> peer rank (-1 = link)
  std::vector<struct pollfd> wait_pfds;  // n + 1 slots, WaitMeshWritable
  std::vector<int> wait_pfd_rank;        // (separate: it runs NESTED inside
                                         // the main loop's pfds iteration)
  std::vector<uint8_t> out_buf;      // outbound (link -> mesh) relay chunks
  std::vector<uint8_t> in_buf;       // inbound (mesh -> link) relay chunks
  /// Remote compute: lazily created by the first worker-protocol frame
  /// addressed to this rank (kTagWkLoad). From then on this endpoint is
  /// not just a relay — PEval/IncEval execute HERE, and the host's
  /// output frames leave through the mesh like any other traffic. Frames
  /// only the engine sends (remote_app mode), so pure-relay worlds never
  /// allocate. Forked auto-spawn children rely on glibc's fork handlers
  /// keeping malloc usable; standalone cluster endpoints
  /// (RunTcpEndpointProcess) involve no fork at all.
  std::unique_ptr<RemoteWorkerHost> worker;
};

void SizePlan(EndpointPlan& plan) {
  plan.roster_wire.resize(static_cast<size_t>(plan.n) * kRosterEntryBytes);
  plan.roster.resize(plan.n);
  plan.mesh_fds.assign(plan.n, -1);
  plan.read_open.assign(plan.n, 0);
  plan.pfds.resize(plan.n + 1);
  plan.pfd_rank.resize(plan.n + 1);
  plan.wait_pfds.resize(plan.n + 1);
  plan.wait_pfd_rank.resize(plan.n + 1);
  plan.out_buf.resize(kRelayChunkBytes);
  plan.in_buf.resize(kRelayChunkBytes);
}

bool MeshWriteFull(EndpointPlan& plan, int cfd, uint32_t target,
                   struct iovec* iov, size_t iovcnt);

/// Reads one frame from mesh peer `s` and relays it up the engine link
/// (which always drains: the engine's receiver thread consumes into an
/// unbounded mailbox) — or, for worker-protocol frames, hands it to this
/// endpoint's worker host. Clean peer shutdown clears read_open. Uses
/// in_buf, so it is safe to call while out_buf holds a half-sent
/// outbound chunk.
bool ServiceMeshRead(EndpointPlan& plan, int cfd, uint32_t s) {
  const int fd = plan.mesh_fds[s];
  uint8_t header[kFrameHeaderBytes];
  // The caller's poll snapshot can be stale: a nested WaitMeshWritable
  // pass may already have consumed this conn's data. Probe the first
  // byte without blocking — an empty conn is "nothing to do", not an
  // error, and must not park the relay loop in a blocking read.
  ssize_t first;
  for (;;) {
    first = recv(fd, header, 1, MSG_DONTWAIT);
    if (first >= 0) break;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno != EINTR) return false;
  }
  if (first == 0) {
    plan.read_open[s] = 0;
    return true;
  }
  // One header byte is in: the peer committed a whole frame; blocking
  // for the remainder is safe.
  const int h = net::ReadFullFd(fd, header + 1, sizeof(header) - 1);
  if (h != 1) return false;
  const uint32_t from = GetU32(header + 0);
  const uint32_t to = GetU32(header + 4);
  const uint32_t tag = GetU32(header + 8);
  const uint32_t len = GetU32(header + 12);
  if (from != s || to != plan.rank || len > kMaxFramePayloadBytes) {
    return false;
  }
  // Worker-protocol frames addressed to a worker rank are consumed here —
  // remote compute happens in THIS process. Rank 0's endpoint never hosts
  // a worker: it fronts the engine, so worker output addressed to the
  // coordinator (acks, owner-bound updates, partials) relays up its link
  // like any other frame.
  if (IsWorkerTag(tag) && plan.rank != 0) {
    // Remote compute: consume the frame here instead of relaying it up.
    // The peer committed a whole frame, so blocking for the payload is
    // safe (same argument as the header remainder above).
    std::vector<uint8_t> payload(len);
    if (len > 0 && net::ReadFullFd(fd, payload.data(), len) != 1) {
      return false;
    }
    if (!plan.worker) {
      // Output frames travel the mesh exactly like engine-relayed ones:
      // over the (rank, to) connection with deadlock-free writes, so
      // acks reach the engine via endpoint 0's link and direct mirror
      // refreshes reach the destination endpoint's worker directly.
      EndpointPlan* p = &plan;
      plan.worker = std::make_unique<RemoteWorkerHost>(
          plan.rank, [p, cfd](uint32_t out_to, uint32_t out_tag,
                              std::vector<uint8_t> out_payload) {
            if (out_to >= p->n || p->mesh_fds[out_to] < 0) {
              return Status::IOError("worker output for rank " +
                                     std::to_string(out_to) +
                                     " has no mesh connection");
            }
            uint8_t out_header[kFrameHeaderBytes];
            EncodeFrameHeader(
                FrameHeader{p->rank, out_to, out_tag,
                            static_cast<uint32_t>(out_payload.size())},
                out_header);
            struct iovec iov[2];
            iov[0].iov_base = out_header;
            iov[0].iov_len = kFrameHeaderBytes;
            iov[1].iov_base = out_payload.data();
            iov[1].iov_len = out_payload.size();
            if (!MeshWriteFull(*p, cfd, out_to, iov,
                               out_payload.empty() ? 1 : 2)) {
              return Status::IOError("worker output mesh write failed");
            }
            return Status::OK();
          });
    }
    return plan.worker->OnFrame(from, tag, std::move(payload)).ok();
  }
  return RelayFrame(fd, cfd, header, plan.in_buf.data(), plan.in_buf.size(),
                    len);
}

/// Blocks until mesh conn `target` is writable — but keeps consuming
/// inbound mesh frames while waiting. This is what makes the full-duplex
/// mesh deadlock-free: if we and a peer are both mid-write on the same
/// (or a cyclically dependent) connection, each side draining its read
/// half reopens the other side's TCP window, so someone always makes
/// progress. Plain blocking writes here would let two ranks exchanging
/// more than a socket buffer of data in both directions wedge the world.
bool WaitMeshWritable(EndpointPlan& plan, int cfd, uint32_t target) {
  for (;;) {
    nfds_t live = 0;
    plan.wait_pfds[live] = {plan.mesh_fds[target], POLLOUT, 0};
    plan.wait_pfd_rank[live] = -2;
    ++live;
    for (uint32_t s = 0; s < plan.n; ++s) {
      if (!plan.read_open[s]) continue;
      plan.wait_pfds[live] = {plan.mesh_fds[s], POLLIN, 0};
      plan.wait_pfd_rank[live] = static_cast<int>(s);
      ++live;
    }
    const int rc = poll(plan.wait_pfds.data(), live, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bool writable = false;
    for (nfds_t j = 0; j < live; ++j) {
      if (plan.wait_pfds[j].revents == 0) continue;
      if (plan.wait_pfd_rank[j] == -2) {
        // POLLERR/POLLHUP also end the wait: the retried send surfaces
        // the error as EPIPE.
        writable = true;
      } else if (!ServiceMeshRead(
                     plan, cfd,
                     static_cast<uint32_t>(plan.wait_pfd_rank[j]))) {
        return false;
      }
    }
    if (writable) return true;
  }
}

/// Writes a whole iovec to mesh conn `target` with MSG_DONTWAIT sends,
/// parking in WaitMeshWritable whenever the peer's window is closed.
bool MeshWriteFull(EndpointPlan& plan, int cfd, uint32_t target,
                   struct iovec* iov, size_t iovcnt) {
  struct msghdr msg {};
  msg.msg_iov = iov;
  msg.msg_iovlen = iovcnt;
  for (;;) {
    const ssize_t k =
        sendmsg(plan.mesh_fds[target], &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (k < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      if (!WaitMeshWritable(plan, cfd, target)) return false;
      continue;
    }
    size_t adv = static_cast<size_t>(k);
    while (msg.msg_iovlen > 0 && adv >= msg.msg_iov[0].iov_len) {
      adv -= msg.msg_iov[0].iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen == 0) return true;
    msg.msg_iov[0].iov_base =
        static_cast<uint8_t*>(msg.msg_iov[0].iov_base) + adv;
    msg.msg_iov[0].iov_len -= adv;
  }
}

/// Relays one frame from the engine link onto mesh conn `to`, streaming
/// the payload in chunks through out_buf with deadlock-free mesh writes.
bool RelayParentFrameToMesh(EndpointPlan& plan, int cfd, uint32_t to,
                            const uint8_t* header, uint32_t len) {
  uint8_t* buf = plan.out_buf.data();
  const size_t buf_size = plan.out_buf.size();
  size_t left = len;
  bool header_pending = true;
  while (header_pending || left > 0) {
    const size_t want = left < buf_size ? left : buf_size;
    size_t got = 0;
    if (want > 0) {
      const ssize_t k = read(cfd, buf, want);
      if (k <= 0) {
        if (k < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        return false;  // engine died mid-frame
      }
      got = static_cast<size_t>(k);
    }
    struct iovec iov[2];
    size_t iovcnt = 0;
    if (header_pending) {
      iov[iovcnt].iov_base = const_cast<uint8_t*>(header);
      iov[iovcnt].iov_len = kFrameHeaderBytes;
      ++iovcnt;
    }
    if (got > 0) {
      iov[iovcnt].iov_base = buf;
      iov[iovcnt].iov_len = got;
      ++iovcnt;
    }
    if (!MeshWriteFull(plan, cfd, to, iov, iovcnt)) return false;
    header_pending = false;
    left -= got;
  }
  return true;
}

/// Runs the endpoint: rendezvous, mesh, then the relay loop — frames from
/// the engine link fan out over the mesh (or loop back for self-sends),
/// frames from the mesh relay up the link. Exits cleanly only after the
/// engine shut the link down AND every mesh peer finished sending, so no
/// frame in flight is ever dropped. Returns the process exit code.
/// `lfd`/`cfd` are out-params so the EndpointRun wrapper can close
/// whatever a failed join left open.
int EndpointRunBody(EndpointPlan& plan, int& lfd, int& cfd) {
  for (int fd : plan.close_fds) close(fd);

  // Mesh listener, bound before the hello so the roster only ever names
  // listeners that already exist — dialing after the roster needs no
  // retry handshake.
  lfd = socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return 1;
  int one = 1;
  setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(lfd, reinterpret_cast<const sockaddr*>(&plan.mesh_bind),
           sizeof(plan.mesh_bind)) != 0) {
    return 1;
  }
  if (listen(lfd, static_cast<int>(plan.n) + 8) != 0) return 1;
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (getsockname(lfd, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    return 1;
  }

  // Rendezvous: dial the rank-0 listener, report our mesh address, get
  // the frozen roster back. This connection then IS the frame link.
  cfd = ConnectWithDeadline(plan.coord_addr, plan.deadline_ms);
  if (cfd < 0) return 1;
  uint8_t hello[kHelloBytes + kTokenDigestBytes];
  PutU32(hello + 0, kHelloMagic);
  PutU32(hello + 4, plan.rank);
  PutU32(hello + 8, ntohs(bound.sin_port));
  size_t hello_len = kHelloBytes;
  if (plan.token_digest != 0) {
    PutU64(hello + kHelloBytes, plan.token_digest);
    hello_len += kTokenDigestBytes;
  }
  if (!net::WriteFullFd(cfd, hello, hello_len)) return 1;

  uint8_t rhdr[kRosterHeaderBytes];
  if (net::ReadFullFd(cfd, rhdr, sizeof(rhdr)) != 1) return 1;
  if (GetU32(rhdr) != kRosterMagic || GetU32(rhdr + 4) != plan.n) return 1;
  if (!plan.roster_wire.empty() &&
      net::ReadFullFd(cfd, plan.roster_wire.data(),
                      plan.roster_wire.size()) != 1) {
    return 1;
  }
  for (uint32_t r = 0; r < plan.n; ++r) {
    sockaddr_in& a = plan.roster[r];
    std::memset(&a, 0, sizeof(a));
    a.sin_family = AF_INET;
    const uint8_t* e = plan.roster_wire.data() + r * kRosterEntryBytes;
    std::memcpy(&a.sin_addr.s_addr, e, 4);
    std::memcpy(&a.sin_port, e + 4, 2);
  }

  // Full mesh: dial every lower rank, accept from every higher rank. One
  // TCP connection per unordered pair carries both directions.
  for (uint32_t s = 0; s < plan.rank; ++s) {
    int fd = ConnectWithDeadline(plan.roster[s], plan.deadline_ms);
    if (fd < 0) return 1;
    uint8_t mh[kMeshHelloBytes + kTokenDigestBytes];
    PutU32(mh + 0, kMeshMagic);
    PutU32(mh + 4, plan.rank);
    size_t mh_len = kMeshHelloBytes;
    if (plan.token_digest != 0) {
      PutU64(mh + kMeshHelloBytes, plan.token_digest);
      mh_len += kTokenDigestBytes;
    }
    if (!net::WriteFullFd(fd, mh, mh_len)) return 1;
    plan.mesh_fds[s] = fd;
  }
  // Accepting is hardened the same way as the rank-0 rendezvous
  // listener: this port may sit open on INADDR_ANY for the whole join
  // window, so a connection only claims a peer slot once it produces a
  // well-formed mesh hello — probes and garbage are dropped and the loop
  // keeps accepting, with the phase deadline as the backstop.
  uint32_t have = 0;
  const uint32_t need = plan.n - 1 - plan.rank;
  while (have < need) {
    const int64_t remain = plan.deadline_ms - MonotonicMs();
    if (remain <= 0) return 1;
    struct pollfd lp = {lfd, POLLIN, 0};
    const int prc = poll(&lp, 1, static_cast<int>(remain));
    if (prc < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    if (prc == 0) continue;  // re-check the deadline
    int fd;
    do {
      fd = accept(lfd, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return 1;
    TuneSocket(fd);
    uint8_t mh[kMeshHelloBytes];
    if (!ReadFullDeadline(fd, mh, sizeof(mh),
                          HandshakeDeadline(plan.deadline_ms))) {
      close(fd);
      continue;
    }
    const uint32_t from = GetU32(mh + 4);
    if (GetU32(mh + 0) != kMeshMagic || from <= plan.rank || from >= plan.n ||
        plan.mesh_fds[from] >= 0 ||
        !ReadTokenDigest(fd, plan.token_digest,
                         HandshakeDeadline(plan.deadline_ms))) {
      close(fd);
      continue;
    }
    plan.mesh_fds[from] = fd;
    ++have;
  }
  close(lfd);
  lfd = -1;

  // Relay loop.
  bool link_open = true;
  for (uint32_t s = 0; s < plan.n; ++s) {
    plan.read_open[s] = (s != plan.rank && plan.mesh_fds[s] >= 0) ? 1 : 0;
  }
  for (;;) {
    nfds_t live = 0;
    if (link_open) {
      plan.pfds[live] = {cfd, POLLIN, 0};
      plan.pfd_rank[live] = -1;
      ++live;
    }
    for (uint32_t s = 0; s < plan.n; ++s) {
      if (!plan.read_open[s]) continue;
      plan.pfds[live] = {plan.mesh_fds[s], POLLIN, 0};
      plan.pfd_rank[live] = static_cast<int>(s);
      ++live;
    }
    if (live == 0) break;  // link down and every peer drained: all relayed
    int rc = poll(plan.pfds.data(), live, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    for (nfds_t j = 0; j < live; ++j) {
      if (plan.pfds[j].revents == 0) continue;
      uint8_t header[kFrameHeaderBytes];
      if (plan.pfd_rank[j] < 0) {
        // Engine link: a frame Sent from this rank, or engine shutdown.
        const int h = net::ReadFullFd(cfd, header, sizeof(header));
        if (h == 0) {
          // Engine called Close(): nothing more will be Sent from this
          // rank, so tell every peer this direction is done.
          link_open = false;
          for (uint32_t s = 0; s < plan.n; ++s) {
            if (s != plan.rank && plan.mesh_fds[s] >= 0) {
              shutdown(plan.mesh_fds[s], SHUT_WR);
            }
          }
          continue;
        }
        if (h < 0) return 1;
        const uint32_t from = GetU32(header + 0);
        const uint32_t to = GetU32(header + 4);
        const uint32_t len = GetU32(header + 12);
        if (from != plan.rank || to >= plan.n || len > kMaxFramePayloadBytes) {
          return 1;
        }
        if (to == plan.rank) {
          // Self-send: straight back up the link (always drains).
          if (!RelayFrame(cfd, cfd, header, plan.out_buf.data(),
                          plan.out_buf.size(), len)) {
            return 1;
          }
        } else if (plan.mesh_fds[to] < 0 ||
                   !RelayParentFrameToMesh(plan, cfd, to, header, len)) {
          return 1;
        }
      } else {
        // Mesh: a frame for this rank from peer s, or peer shutdown.
        const uint32_t s = static_cast<uint32_t>(plan.pfd_rank[j]);
        if (!ServiceMeshRead(plan, cfd, s)) return 1;
      }
    }
  }
  close(cfd);  // link EOF: the engine's receiver thread sees a clean end
  cfd = -1;
  for (uint32_t s = 0; s < plan.n; ++s) {
    if (plan.mesh_fds[s] >= 0) {
      close(plan.mesh_fds[s]);
      plan.mesh_fds[s] = -1;
    }
  }
  return 0;
}

/// EndpointRunBody + failure cleanup. Forked children _exit right after
/// this returns, but RunTcpEndpointProcess runs it in the caller's
/// process — a supervisor retrying a failed join in a loop must not leak
/// the listener, the rendezvous connection, and half a mesh per attempt.
int EndpointRun(EndpointPlan& plan) {
  int lfd = -1;
  int cfd = -1;
  const int rc = EndpointRunBody(plan, lfd, cfd);
  if (rc != 0) {
    if (lfd >= 0) close(lfd);
    if (cfd >= 0) close(cfd);
    for (int& fd : plan.mesh_fds) {
      if (fd >= 0) {
        close(fd);
        fd = -1;
      }
    }
  }
  return rc;
}

Status ResolveIPv4(const std::string& host, uint16_t port, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  struct addrinfo hints {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const int rc = getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Status::IOError("cannot resolve host '" + host +
                           "': " + gai_strerror(rc));
  }
  out->sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  freeaddrinfo(res);
  return Status::OK();
}

}  // namespace

TcpTransport::TcpTransport(uint32_t size) : MailboxTransport(size) {
  links_.reserve(size);
  for (uint32_t i = 0; i < size; ++i) {
    links_.push_back(std::make_unique<Link>());
  }
}

Result<std::unique_ptr<TcpTransport>> TcpTransport::Create(
    uint32_t size, TcpOptions options) {
  if (size == 0) {
    return Status::InvalidArgument("transport size must be positive");
  }
  if (!options.hosts.empty() && options.hosts.size() != size) {
    return Status::InvalidArgument(
        "tcp roster lists " + std::to_string(options.hosts.size()) +
        " hosts for a world of " + std::to_string(size) + " ranks");
  }
  GRAPE_RETURN_NOT_OK(ValidateCoordinatorAddress(options.hosts));
  std::unique_ptr<TcpTransport> t(new TcpTransport(size));
  t->options_ = options;
  t->cluster_ = !options.hosts.empty();
  GRAPE_RETURN_NOT_OK(t->Init(options));
  return t;
}

Status TcpTransport::Init(const TcpOptions& options) {
  const uint32_t n = size();
  const bool cluster = !options.hosts.empty();

  // Advertised mesh address per rank: the --hosts entry in cluster mode
  // (resolved once, here), loopback in auto-spawn. Ports come from the
  // hellos — every mesh listener may bind ephemerally.
  std::vector<in_addr> roster_ip(n);
  for (uint32_t r = 0; r < n; ++r) {
    if (cluster) {
      sockaddr_in resolved;
      GRAPE_RETURN_NOT_OK(
          ResolveIPv4(options.hosts[r].host, 0, &resolved));
      roster_ip[r] = resolved.sin_addr;
    } else {
      roster_ip[r].s_addr = htonl(INADDR_LOOPBACK);
    }
  }

  // The rank-0 rendezvous listener. Auto-spawn stays on loopback with an
  // ephemeral port; cluster mode binds the advertised hosts[0].port on
  // every interface so remote endpoints can dial in.
  int lfd = socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) {
    return Status::IOError(std::string("tcp listener socket: ") +
                           std::strerror(errno));
  }
  int one = 1;
  setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in baddr{};
  baddr.sin_family = AF_INET;
  baddr.sin_port = htons(cluster ? options.hosts[0].port : 0);
  baddr.sin_addr.s_addr = htonl(cluster ? INADDR_ANY : INADDR_LOOPBACK);
  if (bind(lfd, reinterpret_cast<const sockaddr*>(&baddr), sizeof(baddr)) !=
          0 ||
      listen(lfd, static_cast<int>(n) + 8) != 0) {
    Status st = Status::IOError(std::string("tcp rendezvous listener: ") +
                                std::strerror(errno));
    close(lfd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (getsockname(lfd, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    close(lfd);
    return Status::IOError("tcp listener getsockname failed");
  }
  const uint16_t coord_port = ntohs(bound.sin_port);

  const int64_t deadline =
      MonotonicMs() + (options.rendezvous_timeout_ms > 0
                           ? options.rendezvous_timeout_ms
                           : 30000);
  const uint64_t token_digest = TokenDigest(options.cluster_token);

  std::vector<int> link_fds(n, -1);
  auto cleanup = [&](const std::string& what) {
    if (lfd >= 0) close(lfd);
    for (int fd : link_fds) {
      if (fd >= 0) close(fd);
    }
    for (pid_t pid : children_) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    children_.clear();
    return Status::IOError("tcp transport setup failed: " + what);
  };

  // Fork the local endpoints: all n in auto-spawn, only rank 0's in
  // cluster mode (the rest are standalone RunClusterEndpoint processes
  // on their machines). Plans are fully allocated before fork. The
  // registry mutex covers only snapshot + forks — NOT the rendezvous,
  // which in cluster mode can legitimately wait minutes for hand-started
  // ranks and must not stall every other transport Create/destructor in
  // the process. The one consequence: a transport forked between our
  // accept phase and registration inherits dups of our link fds
  // unregistered — harmless for TCP, whose EOFs travel via shutdown()
  // and the child's own close, neither of which a stray dup can block.
  {
    std::lock_guard<std::mutex> registry_lock(rt_internal::FdRegistryMutex());
    const uint32_t forks = cluster ? 1 : n;
    std::vector<EndpointPlan> plans(forks);
    for (uint32_t r = 0; r < forks; ++r) {
      EndpointPlan& plan = plans[r];
      plan.rank = r;
      plan.n = n;
      plan.deadline_ms = deadline;
      plan.token_digest = token_digest;
      std::memset(&plan.coord_addr, 0, sizeof(plan.coord_addr));
      plan.coord_addr.sin_family = AF_INET;
      plan.coord_addr.sin_port = htons(coord_port);
      plan.coord_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      std::memset(&plan.mesh_bind, 0, sizeof(plan.mesh_bind));
      plan.mesh_bind.sin_family = AF_INET;
      plan.mesh_bind.sin_port = 0;  // ephemeral; advertised via the roster
      plan.mesh_bind.sin_addr.s_addr =
          htonl(cluster ? INADDR_ANY : INADDR_LOOPBACK);
      SizePlan(plan);
      plan.close_fds.reserve(rt_internal::FdRegistry().size() + 1);
      for (int fd : rt_internal::FdRegistry()) plan.close_fds.push_back(fd);
      plan.close_fds.push_back(lfd);
    }
#ifdef __GLIBC__
    // A forked endpoint starts with this process's resident heap, free
    // chunks included, as its own resident set. Return the free pages
    // first, so an endpoint inherits only the live data: otherwise its
    // footprint is whatever freed memory earlier work happened to leave
    // resident, and differs from one run of the same workload to the next.
    malloc_trim(0);
#endif
    for (uint32_t r = 0; r < forks; ++r) {
      pid_t pid = fork();
      if (pid < 0) return cleanup("fork(endpoint)");
      if (pid == 0) _exit(EndpointRun(plans[r]));
      children_.push_back(pid);
    }
  }

  // Rendezvous: collect one hello per rank, then hand every endpoint the
  // frozen roster on its own connection, which becomes the frame link.
  uint32_t joined = 0;
  std::vector<uint32_t> mesh_port(n, 0);
  while (joined < n) {
    const int64_t remain = deadline - MonotonicMs();
    if (remain <= 0) {
      return cleanup("rendezvous timed out with " + std::to_string(joined) +
                     " of " + std::to_string(n) + " endpoints joined");
    }
    struct pollfd pfd = {lfd, POLLIN, 0};
    int rc = poll(&pfd, 1, static_cast<int>(remain));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;  // re-check the deadline
    int fd;
    do {
      fd = accept(lfd, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return cleanup(std::string("accept: ") + std::strerror(errno));
    TuneSocket(fd);
    // A connection is only an endpoint once it produces a well-formed
    // hello. Anything else — a port scanner, a health check, a stray
    // client, a duplicate rank — is dropped and the accept loop keeps
    // going: in cluster mode this listener sits on a well-known port for
    // a long window, and one probe must not abort the whole launch. The
    // per-hello read budget is capped so a connect-and-say-nothing peer
    // stalls real joins by at most a few seconds, with the overall
    // rendezvous deadline still the backstop.
    uint8_t hello[kHelloBytes];
    if (!ReadFullDeadline(fd, hello, sizeof(hello),
                          HandshakeDeadline(deadline))) {
      close(fd);
      continue;
    }
    const uint32_t rank = GetU32(hello + 4);
    const uint32_t port = GetU32(hello + 8);
    // Port 0 or >65535 would freeze an undialable mesh address into the
    // roster and burn every peer's join deadline — drop it like any
    // other malformed hello.
    // The token digest (auth enabled) is read only after the base hello
    // validates: garbage never earns the extra read, and with auth off
    // the accept path is byte-identical to the historical protocol.
    if (GetU32(hello + 0) != kHelloMagic || rank >= n ||
        link_fds[rank] >= 0 || port == 0 || port > 65535 ||
        !ReadTokenDigest(fd, token_digest, HandshakeDeadline(deadline))) {
      close(fd);
      continue;
    }
    link_fds[rank] = fd;
    mesh_port[rank] = port;
    ++joined;
  }
  std::vector<uint8_t> roster_wire(kRosterHeaderBytes +
                                   static_cast<size_t>(n) *
                                       kRosterEntryBytes);
  PutU32(roster_wire.data() + 0, kRosterMagic);
  PutU32(roster_wire.data() + 4, n);
  for (uint32_t r = 0; r < n; ++r) {
    uint8_t* e = roster_wire.data() + kRosterHeaderBytes +
                 static_cast<size_t>(r) * kRosterEntryBytes;
    std::memcpy(e, &roster_ip[r].s_addr, 4);
    const uint16_t port_be = htons(static_cast<uint16_t>(mesh_port[r]));
    std::memcpy(e + 4, &port_be, 2);
    e[6] = e[7] = 0;
  }
  for (uint32_t r = 0; r < n; ++r) {
    if (!net::WriteFullFd(link_fds[r], roster_wire.data(),
                          roster_wire.size())) {
      return cleanup("roster broadcast to rank " + std::to_string(r));
    }
  }
  close(lfd);
  lfd = -1;
  {
    std::lock_guard<std::mutex> registry_lock(rt_internal::FdRegistryMutex());
    for (uint32_t r = 0; r < n; ++r) {
      links_[r]->fd = link_fds[r];
      rt_internal::FdRegistry().insert(link_fds[r]);
    }
  }

  receivers_.reserve(n);
  for (uint32_t r = 0; r < n; ++r) {
    receivers_.emplace_back([this, r] { ReceiverLoop(r); });
  }
  return Status::OK();
}

TcpTransport::~TcpTransport() {
  Close();
  for (std::thread& t : receivers_) {
    if (t.joinable()) t.join();
  }
  std::vector<int> closed;
  for (auto& link : links_) {
    std::lock_guard<std::mutex> lock(link->mu);
    if (link->fd >= 0) {
      closed.push_back(link->fd);
      link->fd = -1;
    }
  }
  rt_internal::CloseAndUnregisterFds(closed);
  ReapChildren();
}

Status TcpTransport::Send(uint32_t from, uint32_t to, uint32_t tag,
                          std::vector<uint8_t> payload) {
  if (from >= size() || to >= size()) {
    return Status::InvalidArgument("rank out of range");
  }
  if (payload.size() > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("payload exceeds the frame bound");
  }
  if (broken_.load(std::memory_order_acquire)) {
    return Status::Unavailable("tcp transport endpoint died");
  }
  if (closed()) return Status::Cancelled("transport closed");

  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(
      FrameHeader{from, to, tag, static_cast<uint32_t>(payload.size())},
      header);
  Link& link = *links_[from];
  {
    std::lock_guard<std::mutex> lock(link.mu);
    if (link.fd < 0 || link.shut) return Status::Cancelled("transport closed");
    // Count the frame as sent BEFORE it hits the wire: Flush must never
    // observe delivered >= sent while a Send that already returned is
    // still in flight. A failed write leaves sent permanently ahead,
    // which broken_ short-circuits.
    // Worker-protocol frames are excluded: they terminate inside an
    // endpoint's worker host and can never balance the barrier.
    if (!IsWorkerTag(tag)) {
      frames_sent_.fetch_add(1, std::memory_order_acq_rel);
    }
    struct iovec iov[2];
    iov[0].iov_base = header;
    iov[0].iov_len = sizeof(header);
    iov[1].iov_base = payload.data();
    iov[1].iov_len = payload.size();
    if (!net::WritevFullFd(link.fd, iov, payload.empty() ? 1 : 2)) {
      broken_.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> flush_lock(flush_mu_);
      }
      flush_cv_.notify_all();
      return Status::Unavailable("tcp transport endpoint died mid-send");
    }
  }
  CountSendTagged(tag, payload.size());
  buffer_pool().Release(std::move(payload));
  return Status::OK();
}

void TcpTransport::ReceiverLoop(uint32_t rank) {
  // The fd is stable for the thread's whole life: Close() only shuts the
  // write side; the destructor close()s after joining us.
  const int fd = links_[rank]->fd;
  FrameDecoder decoder(&buffer_pool());
  std::vector<uint8_t> chunk(kRelayChunkBytes);
  bool clean = true;
  for (;;) {
    ssize_t k = read(fd, chunk.data(), chunk.size());
    if (k == 0) {
      // EOF is clean only after Close(): an endpoint never closes its
      // link while the world is live, so a premature EOF — even at a
      // frame boundary — means the endpoint process died.
      clean = closed() && decoder.Finish().ok();
      break;
    }
    if (k < 0) {
      if (errno == EINTR) continue;
      clean = false;
      break;
    }
    if (!decoder.Feed(chunk.data(), static_cast<size_t>(k)).ok()) {
      clean = false;
      break;
    }
    bool bad = false;
    while (auto msg = decoder.Next()) {
      if (msg->to != rank) {
        bad = true;
        break;
      }
      const uint32_t tag = msg->tag;
      Deliver(std::move(*msg));
      if (!IsWorkerTag(tag)) {
        // Worker-origin frames (acks, partials, owner-bound updates)
        // never entered the sent side of the Flush barrier; keep the
        // delivered side symmetric.
        {
          std::lock_guard<std::mutex> lock(flush_mu_);
          frames_delivered_.fetch_add(1, std::memory_order_acq_rel);
        }
        flush_cv_.notify_all();
      }
    }
    if (bad) {
      clean = false;
      break;
    }
  }
  if (!clean) MarkBroken("tcp endpoint died");
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
  }
  flush_cv_.notify_all();
}

void TcpTransport::MarkBroken(const char*) {
  broken_.store(true, std::memory_order_release);
  MarkClosed();  // a broken substrate must not leave Recv blocked
}

Status TcpTransport::Flush() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_cv_.wait(lock, [this] {
    return broken_.load(std::memory_order_acquire) || closed() ||
           frames_delivered_.load(std::memory_order_acquire) >=
               frames_sent_.load(std::memory_order_acquire);
  });
  if (broken_.load(std::memory_order_acquire)) {
    return Status::Unavailable("tcp transport endpoint died in flight");
  }
  if (closed()) return Status::Cancelled("transport closed");
  return Status::OK();
}

void TcpTransport::Close() {
  std::call_once(close_once_, [this] {
    MarkClosed();
    // Shut only the write sides: endpoints see link EOF, drain the mesh,
    // and relay every in-flight frame up before closing for real. The
    // receiver threads keep the read sides until the destructor.
    for (auto& link : links_) {
      std::lock_guard<std::mutex> lock(link->mu);
      if (link->fd >= 0 && !link->shut) {
        shutdown(link->fd, SHUT_WR);
        link->shut = true;
      }
    }
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
    }
    flush_cv_.notify_all();
  });
}

void TcpTransport::ReapChildren() {
  for (pid_t pid : children_) {
    waitpid(pid, nullptr, 0);
  }
  children_.clear();
}

Status TcpTransport::Recover() {
  if (cluster_) {
    // Remote endpoints are launched out-of-band (RunClusterEndpoint on
    // their machines); this process cannot respawn them.
    return Status::Unavailable(
        "tcp cluster worlds cannot be recovered in place: remote endpoints "
        "must be relaunched externally");
  }
  // Kill the whole local world: every endpoint is our fork, and their
  // deaths RST the links, unblocking any receiver still parked in read.
  for (pid_t pid : children_) kill(pid, SIGKILL);
  // Deliberately NOT Close(): close_once_ must stay armed so the eventual
  // final Close still shuts down the world Init() rebuilds below.
  MarkClosed();
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
  }
  flush_cv_.notify_all();
  for (std::thread& t : receivers_) {
    if (t.joinable()) t.join();
  }
  receivers_.clear();
  std::vector<int> closed_fds;
  for (auto& link : links_) {
    std::lock_guard<std::mutex> lock(link->mu);
    if (link->fd >= 0) {
      closed_fds.push_back(link->fd);
      link->fd = -1;
    }
    link->shut = false;
  }
  rt_internal::CloseAndUnregisterFds(closed_fds);
  ReapChildren();
  // Back to just-constructed state, then bring up the fresh world.
  frames_sent_.store(0, std::memory_order_release);
  frames_delivered_.store(0, std::memory_order_release);
  broken_.store(false, std::memory_order_release);
  ResetForRecovery();  // empties mailboxes, clears the closed flag
  return Init(options_);
}

Status RunTcpEndpointProcess(uint32_t rank, uint32_t world_size,
                             const HostPort& coordinator,
                             uint16_t mesh_bind_port, int timeout_ms,
                             const std::string& cluster_token) {
  if (world_size == 0 || rank >= world_size) {
    return Status::InvalidArgument("endpoint rank " + std::to_string(rank) +
                                   " outside world of " +
                                   std::to_string(world_size));
  }
  EndpointPlan plan;
  plan.rank = rank;
  plan.n = world_size;
  plan.deadline_ms = MonotonicMs() + (timeout_ms > 0 ? timeout_ms : 30000);
  plan.token_digest = TokenDigest(cluster_token);
  GRAPE_RETURN_NOT_OK(
      ResolveIPv4(coordinator.host, coordinator.port, &plan.coord_addr));
  std::memset(&plan.mesh_bind, 0, sizeof(plan.mesh_bind));
  plan.mesh_bind.sin_family = AF_INET;
  plan.mesh_bind.sin_port = htons(mesh_bind_port);
  plan.mesh_bind.sin_addr.s_addr = htonl(INADDR_ANY);
  SizePlan(plan);
  if (EndpointRun(plan) != 0) {
    return Status::IOError(
        "tcp endpoint for rank " + std::to_string(rank) +
        " failed (coordinator unreachable, mesh peer died, or protocol "
        "error)");
  }
  return Status::OK();
}

}  // namespace grape
