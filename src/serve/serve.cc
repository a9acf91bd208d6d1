#include "serve/serve.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cc.h"
#include "apps/ms_bfs.h"
#include "apps/ms_sssp.h"
#include "apps/pagerank.h"
#include "core/engine.h"
#include "rt/frame_decoder.h"
#include "rt/net_util.h"

namespace grape {

struct ServeServer::Impl {
  // ------------------------------------------------------------ plumbing

  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
    /// Requests this connection queued for the dispatcher and not yet
    /// answered. Only the reader raises it and the dispatcher lowers it
    /// (under write_mu, just before writing the answer), so a reader
    /// that sees 0 knows every earlier answer is on the wire or ahead of
    /// it on write_mu: an admission-time answer cannot overtake one.
    std::atomic<uint32_t> unanswered{0};
  };

  struct PendingRequest {
    std::shared_ptr<Connection> conn;
    uint32_t request_id = 0;
    uint32_t tag = 0;
    std::vector<uint8_t> payload;
  };

  explicit Impl(ServeOptions options) : options_(std::move(options)) {}

  ~Impl() { Shutdown(); }

  // -------------------------------------------------------------- control

  Status Start() {
    if (options_.transport == nullptr) {
      return Status::InvalidArgument("ServeOptions::transport is required");
    }
    if (options_.num_fragments == 0) {
      return Status::InvalidArgument("ServeOptions::num_fragments must be > 0");
    }
    const bool coord = static_cast<bool>(options_.load_coordinator);
    const bool dist = static_cast<bool>(options_.load_distributed);
    if (coord == dist) {
      return Status::InvalidArgument(
          "set exactly one of load_coordinator / load_distributed");
    }
    GRAPE_RETURN_NOT_OK(LoadEpoch());

    // Client listener: loopback only — the serve protocol authenticates
    // nothing; exposure beyond the host is the operator's business (ssh
    // tunnel, reverse proxy), not a default.
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError(std::string("serve listener socket: ") +
                             std::strerror(errno));
    }
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in baddr{};
    baddr.sin_family = AF_INET;
    baddr.sin_port = htons(options_.listen_port);
    baddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&baddr),
             sizeof(baddr)) != 0 ||
        listen(listen_fd_, 64) != 0) {
      Status st = Status::IOError(std::string("serve listener: ") +
                                  std::strerror(errno));
      close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) !=
        0) {
      close(listen_fd_);
      listen_fd_ = -1;
      return Status::IOError("serve listener getsockname failed");
    }
    port_ = ntohs(bound.sin_port);

    accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
    dispatcher_thread_ = std::thread([this] { DispatcherLoop(); });
    started_ = true;
    if (options_.verbose) {
      std::fprintf(stderr, "grape_serve: serving on 127.0.0.1:%u (epoch %llu)\n",
                   port_, static_cast<unsigned long long>(epoch_.load()));
    }
    return Status::OK();
  }

  void Shutdown() {
    bool expected = false;
    if (!shut_.compare_exchange_strong(expected, true)) return;
    stop_.store(true);
    {
      std::lock_guard<std::mutex> lk(qu_mu_);
    }
    qu_cv_.notify_all();
    // Only wake the accept thread here: it still reads the fd, so the
    // close (and the reset) wait until it has joined.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      for (auto& conn : conns_) {
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    // No new readers can be spawned once the accept thread is gone.
    for (auto& t : reader_threads_) {
      if (t.joinable()) t.join();
    }
    if (dispatcher_thread_.joinable()) dispatcher_thread_.join();
    for (auto& conn : conns_) {
      if (conn->fd >= 0) {
        close(conn->fd);
        conn->fd = -1;
      }
    }
    RetireEpoch();
  }

  // ---------------------------------------------------------- graph epoch

  /// Loads the next epoch: retires the last one, runs the loader, rebuilds,
  /// primes residency. On failure the server keeps its (bumped) epoch but
  /// no engines — queries error until a reload works.
  Status LoadEpoch() {
    // Before the next graph arrives, so an endpoint never holds two epochs.
    RetireEpoch();
    graph_unknown_ = false;
    PublishAnswers(nullptr, nullptr);
    mut_seq_ = 0;  // versions are (epoch << 32) | seq; a new epoch restarts seq

    if (options_.load_coordinator) {
      auto fg = options_.load_coordinator();
      GRAPE_RETURN_NOT_OK(fg.status());
      epoch_.fetch_add(1);
      // The one time this epoch's graph crosses the world. The loader's
      // graph dies with this scope; from here on rank 0 holds only meta_,
      // exactly as under distributed loading.
      GRAPE_ASSIGN_OR_RETURN(meta_,
                             DepositFragments(options_.transport, *fg));
    } else {
      GRAPE_ASSIGN_OR_RETURN(meta_,
                             options_.load_distributed(options_.transport));
      epoch_.fetch_add(1);
    }

    // Every engine attaches to the resident fragments by token, each into
    // its own app slot in every endpoint, and every class's session stays
    // warm beside the others; a cold session (the first of its class, or
    // after a failed wave) attaches again, never re-ships the graph.
    EngineOptions eo;
    eo.transport = options_.transport;
    eo.remote_app = "ms_sssp";
    sssp_ = std::make_unique<GrapeEngine<MsSsspApp>>(meta_, eo);
    eo.remote_app = "ms_bfs";
    bfs_ = std::make_unique<GrapeEngine<MsBfsApp>>(meta_, eo);
    eo.remote_app = "cc";
    cc_ = std::make_unique<GrapeEngine<CcApp>>(meta_, eo);
    eo.remote_app = "pagerank";
    pr_ = std::make_unique<GrapeEngine<PageRankApp>>(meta_, eo);

    // Prime: a zero-lane attach leaves the SSSP session warm for the
    // first real query.
    auto primed = sssp_->SessionRun(MsSsspQuery{});
    GRAPE_RETURN_NOT_OK(primed.status());
    if (options_.verbose) {
      std::fprintf(stderr,
                   "grape_serve: epoch %llu loaded (%u fragments, token %llx)\n",
                   static_cast<unsigned long long>(epoch_.load()),
                   meta_.num_fragments,
                   static_cast<unsigned long long>(meta_.token));
    }
    return Status::OK();
  }

  /// Destroys the per-class engines, each retiring its own app slot, then
  /// frees the epoch's resident fragments in every endpoint (the server
  /// owns them under either loader).
  void RetireEpoch() {
    sssp_.reset();
    bfs_.reset();
    cc_.reset();
    pr_.reset();
    if (meta_.token != 0) ReleaseResident(options_.transport, meta_.token);
    meta_ = DistributedGraphMeta{};
  }

  /// Installs the standing answers (nullptr: not current). Under qu_mu_,
  /// so a reader's admission check sees answers and pending transitions
  /// as one consistent state.
  void PublishAnswers(std::shared_ptr<const std::vector<uint8_t>> cc,
                      std::shared_ptr<const std::vector<uint8_t>> pr) {
    std::lock_guard<std::mutex> lk(qu_mu_);
    cc_answer_ = std::move(cc);
    pr_answer_ = std::move(pr);
  }

  /// Pre-encodes a standing answer once; every read of it ships these
  /// bytes as they are.
  template <typename T>
  static std::shared_ptr<const std::vector<uint8_t>> EncodeAnswer(
      const std::vector<T>& answer) {
    Encoder enc;
    enc.WritePodVector(answer);
    return std::make_shared<const std::vector<uint8_t>>(enc.TakeBuffer());
  }

  // ------------------------------------------------------------ listener

  void AcceptLoop(int listen_fd) {
    for (;;) {
      sockaddr_in addr{};
      socklen_t alen = sizeof(addr);
      int fd = accept(listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen);
      if (fd < 0) {
        if (errno == EINTR && !stop_.load()) continue;
        break;
      }
      if (stop_.load()) {
        close(fd);
        break;
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.push_back(conn);
      reader_threads_.emplace_back(
          [this, conn]() mutable { ReaderLoop(std::move(conn)); });
    }
  }

  void ReaderLoop(std::shared_ptr<Connection> conn) {
    FrameDecoder decoder;
    decoder.set_max_payload_bytes(options_.max_client_frame_bytes);
    std::vector<uint8_t> buf(64 * 1024);
    bool fatal = false;
    while (!stop_.load() && !fatal) {
      ssize_t k = read(conn->fd, buf.data(), buf.size());
      if (k == 0) break;
      if (k < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (!decoder.Feed(buf.data(), static_cast<size_t>(k)).ok()) {
        // Oversized or garbage frame: one error frame, then the
        // connection dies — the stream has lost sync, so nothing later
        // on it can be trusted.
        rejected_frames_.fetch_add(1);
        SendError(*conn, 0, decoder.status());
        fatal = true;
        break;
      }
      while (auto msg = decoder.Next()) {
        if (!IsServeRequestTag(msg->tag)) {
          rejected_frames_.fetch_add(1);
          SendError(*conn, msg->from,
                    Status::InvalidArgument("unknown request tag " +
                                            std::to_string(msg->tag)));
          fatal = true;
          break;
        }
        const bool transition =
            msg->tag == kTagSvReload || msg->tag == kTagSvMutate;
        if (transition && wave_active_.load()) {
          // The transition is not lost — it waits in FIFO order behind
          // the wave — but the deferral is observable (epoch transitions
          // serialize against in-flight waves, never under them).
          deferred_transitions_.fetch_add(1);
        }
        // A standing answer that is current is served right here, at
        // admission, without waiting for the wave in flight — but only
        // while no transition is queued or executing (the answer could
        // be about to change) and this connection has nothing
        // unanswered (answers keep request order).
        std::shared_ptr<const std::vector<uint8_t>> standing;
        {
          std::lock_guard<std::mutex> lk(qu_mu_);
          if (transitions_ == 0 && conn->unanswered.load() == 0) {
            if (msg->tag == kTagSvCcLabel) standing = cc_answer_;
            if (msg->tag == kTagSvPageRank) standing = pr_answer_;
          }
          if (standing == nullptr) {
            if (transition) ++transitions_;
            conn->unanswered.fetch_add(1);
            queue_.push_back(PendingRequest{conn, msg->from, msg->tag,
                                            std::move(msg->payload)});
          }
        }
        if (standing != nullptr) {
          cache_hits_.fetch_add(1);
          queries_.fetch_add(1);
          SendFrame(*conn, msg->from, kTagSvOk, *standing);
          continue;
        }
        qu_cv_.notify_one();
      }
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->open.store(false);
  }

  // ----------------------------------------------------------- responses

  /// `queued` marks the answer to a request the dispatcher took from the
  /// queue (see Connection::unanswered).
  void SendFrame(Connection& conn, uint32_t request_id, uint32_t tag,
                 const std::vector<uint8_t>& payload, bool queued = false) {
    FrameHeader h;
    h.from = request_id;
    h.to = 0;
    h.tag = tag;
    h.payload_len = static_cast<uint32_t>(payload.size());
    uint8_t hdr[kFrameHeaderBytes];
    EncodeFrameHeader(h, hdr);
    std::lock_guard<std::mutex> lk(conn.write_mu);
    if (queued) conn.unanswered.fetch_sub(1);
    if (!conn.open.load()) return;
    if (!net::WriteFullFd(conn.fd, hdr, sizeof(hdr)) ||
        (!payload.empty() &&
         !net::WriteFullFd(conn.fd, payload.data(), payload.size()))) {
      conn.open.store(false);
    }
  }

  void SendOk(const PendingRequest& req, const std::vector<uint8_t>& payload) {
    queries_.fetch_add(1);
    SendFrame(*req.conn, req.request_id, kTagSvOk, payload, /*queued=*/true);
  }

  /// Error frame outside the queue: a frame the reader rejected.
  void SendError(Connection& conn, uint32_t request_id, const Status& error) {
    errors_.fetch_add(1);
    Encoder enc;
    EncodeServeError(enc, error);
    SendFrame(conn, request_id, kTagSvError, enc.buffer());
  }

  /// Error answer to a queued request.
  void SendError(const PendingRequest& req, const Status& error) {
    queries_.fetch_add(1);
    errors_.fetch_add(1);
    Encoder enc;
    EncodeServeError(enc, error);
    SendFrame(*req.conn, req.request_id, kTagSvError, enc.buffer(),
              /*queued=*/true);
  }

  void FailBatch(const std::vector<PendingRequest>& batch,
                 const Status& error) {
    for (const PendingRequest& req : batch) SendError(req, error);
  }

  // ----------------------------------------------------------- dispatcher

  void DispatcherLoop() {
    std::unique_lock<std::mutex> lk(qu_mu_);
    while (!stop_.load()) {
      qu_cv_.wait(lk, [this] { return stop_.load() || !queue_.empty(); });
      if (stop_.load()) break;
      std::vector<PendingRequest> batch;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      const uint32_t tag = batch[0].tag;
      const bool batchable = tag == kTagSvSssp || tag == kTagSvBfs ||
                             tag == kTagSvCcLabel || tag == kTagSvPageRank;
      const bool fuse = batchable && options_.batch_window_ms > 0 &&
                        options_.max_batch > 1;
      std::vector<PendingRequest> promoted;
      if (fuse) {
        // Admission window: same-class arrivals within it fuse into one
        // wave. Different-class requests stay queued in order. A Mutate
        // allowed to jump ends the window at once.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.batch_window_ms);
        for (;;) {
          DrainSameTag(tag, &batch);
          TakePromotable(batch, &promoted);
          if (!promoted.empty() || batch.size() >= options_.max_batch ||
              stop_.load()) {
            break;
          }
          if (qu_cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
            DrainSameTag(tag, &batch);
            break;
          }
        }
      }
      // The wave boundary: the wave yields to the Mutates queued now, and
      // to none that arrive later, so writes cannot starve reads.
      if (batchable && promoted.empty()) TakePromotable(batch, &promoted);
      lk.unlock();
      if (!promoted.empty()) {
        promoted_mutations_.fetch_add(promoted.size());
        for (PendingRequest& req : promoted) {
          std::vector<PendingRequest> one;
          one.push_back(std::move(req));
          Execute(kTagSvMutate, one);
        }
        // The reads queued behind the promoted writes join the wave and,
        // like the reads already in it, answer over G ⊕ M.
        if (fuse) {
          lk.lock();
          DrainSameTag(tag, &batch);
          lk.unlock();
        }
      }
      Execute(tag, batch);
      lk.lock();
    }
  }

  /// Moves to `promoted`, in queue order, every queued Mutate that may run
  /// ahead of the read wave `batch`: no request from its connection is in
  /// the batch or ahead of it in the queue (per-connection order holds),
  /// and no transition ahead of it is held back (transitions never reorder
  /// among themselves). A Reload keeps its FIFO place: it costs more than
  /// the wave it would jump.
  void TakePromotable(const std::vector<PendingRequest>& batch,
                      std::vector<PendingRequest>* promoted) {
    std::vector<const Connection*> waiting;
    for (const PendingRequest& req : batch) waiting.push_back(req.conn.get());
    for (auto it = queue_.begin(); it != queue_.end();) {
      const bool own_earlier =
          std::find(waiting.begin(), waiting.end(), it->conn.get()) !=
          waiting.end();
      if (it->tag == kTagSvMutate && !own_earlier) {
        promoted->push_back(std::move(*it));
        it = queue_.erase(it);
        continue;
      }
      if (it->tag == kTagSvMutate || it->tag == kTagSvReload) return;
      waiting.push_back(it->conn.get());
      ++it;
    }
  }

  /// Pulls same-class requests forward into the wave — never past a
  /// queued transition, so a read admitted after a Mutate that did not
  /// jump, or after a Reload, answers over the graph that transition
  /// leaves.
  void DrainSameTag(uint32_t tag, std::vector<PendingRequest>* batch) {
    for (auto it = queue_.begin();
         it != queue_.end() && batch->size() < options_.max_batch;) {
      if (it->tag == kTagSvReload || it->tag == kTagSvMutate) break;
      if (it->tag == tag) {
        batch->push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Execute(uint32_t tag, std::vector<PendingRequest>& batch) {
    if (graph_unknown_ && tag != kTagSvPing && tag != kTagSvReload) {
      if (tag == kTagSvMutate) FinishTransitions(batch.size());
      FailBatch(batch, Status::FailedPrecondition(
                           "graph state unknown after a failed mutation; "
                           "Reload"));
      return;
    }
    switch (tag) {
      case kTagSvPing: {
        for (const PendingRequest& req : batch) SendOk(req, {});
        return;
      }
      case kTagSvReload: {
        ExecuteReload(batch);
        return;
      }
      case kTagSvMutate: {
        ExecuteMutate(batch);
        return;
      }
      case kTagSvSssp: {
        WaveGuard g(this);
        ExecuteWave<MsSsspApp>(batch, sssp_.get(), [](MsSsspOutput&& out) {
          return std::move(out.dist);
        });
        return;
      }
      case kTagSvBfs: {
        WaveGuard g(this);
        ExecuteWave<MsBfsApp>(batch, bfs_.get(), [](MsBfsOutput&& out) {
          return std::move(out.depth);
        });
        return;
      }
      case kTagSvCcLabel: {
        WaveGuard g(this);
        ExecuteCached<CcApp>(batch, cc_.get(), CcQuery{}, &cc_answer_,
                             [](CcOutput&& out) { return std::move(out.label); });
        return;
      }
      case kTagSvPageRank: {
        WaveGuard g(this);
        ExecuteCached<PageRankApp>(
            batch, pr_.get(), PageRankQuery{}, &pr_answer_,
            [](PageRankOutput&& out) { return std::move(out.rank); });
        return;
      }
      default: {
        FailBatch(batch, Status::Internal("dispatcher saw unknown tag"));
        return;
      }
    }
  }

  void ExecuteReload(std::vector<PendingRequest>& batch) {
    Status s = LoadEpoch();
    FinishTransitions(batch.size());
    if (!s.ok()) {
      FailBatch(batch, s);
      return;
    }
    reloads_.fetch_add(1);
    Encoder enc;
    enc.WriteU64(epoch_.load());
    for (const PendingRequest& req : batch) SendOk(req, enc.buffer());
  }

  /// Ends `n` admitted transitions. Runs before their answers go out, so
  /// a client's next read after its Mutate already finds the refreshed
  /// standing answer servable at admission.
  void FinishTransitions(size_t n) {
    std::lock_guard<std::mutex> lk(qu_mu_);
    transitions_ -= static_cast<uint32_t>(n);
  }

  /// Epoch transitions (reload, mutation) only ever run here, on the
  /// dispatcher thread, BETWEEN waves: a transition frame that arrives
  /// while a wave executes waits in the admission queue (counted as
  /// deferred), so fragments are never swapped and the epoch never bumps
  /// under a running engine session. A Mutate may run ahead of a wave that
  /// is admitted but not yet running (TakePromotable), never inside one.
  /// WaveGuard makes the invariant observable to the reader threads.
  struct WaveGuard {
    explicit WaveGuard(Impl* impl) : impl_(impl) {
      impl_->wave_active_.store(true);
    }
    ~WaveGuard() { impl_->wave_active_.store(false); }
    Impl* impl_;
  };

  void ExecuteMutate(std::vector<PendingRequest>& batch) {
    // Mutations are never fused: each batch is one version step and the
    // order of consecutive batches is part of the contract (the
    // dispatcher admits them one at a time).
    for (PendingRequest& req : batch) {
      MutationBatch m;
      Decoder dec(req.payload);
      Status s = MutationBatch::DecodeFrom(dec, &m);
      if (s.ok() && !dec.AtEnd()) {
        s = Status::Corruption("trailing bytes after mutation batch");
      }
      Result<uint64_t> version =
          s.ok() ? ApplyOneMutation(m) : Result<uint64_t>(s);
      FinishTransitions(1);
      if (version.ok()) {
        mutations_.fetch_add(1);
        Encoder enc;
        enc.WriteU64(*version);
        SendOk(req, enc.TakeBuffer());
      } else {
        SendError(req, version.status());
      }
    }
  }

  /// One mutation batch, end to end: the resident fragments inside the
  /// endpoints (the only copy of the graph), routing-slot refresh of every
  /// engine, then standing-answer maintenance. Returns the new version,
  /// (epoch << 32) | intra-epoch sequence.
  Result<uint64_t> ApplyOneMutation(const MutationBatch& m) {
    if (!sssp_) {
      return Status::FailedPrecondition(
          "no loaded graph (did the last reload fail?)");
    }
    GRAPE_RETURN_NOT_OK(m.Validate(meta_.total_vertices));

    // Every engine attaches by token, so any of them can carry the batch,
    // live session or not: each endpoint patches the fragment resident
    // under the token once and re-seats every live class's app slot on
    // it with warm values, so every class's session survives the write.
    Result<std::vector<WkBuildAck>> shapes = sssp_->ApplyMutations(m);
    if (!shapes.ok()) {
      // Some endpoints may already have applied and re-deposited the
      // batch, others not: neither a standing answer nor any session can
      // be trusted until a reload rebuilds the graph.
      graph_unknown_ = true;
      PublishAnswers(nullptr, nullptr);
      return shapes.status();
    }

    // Every fragment was rebuilt: new shapes for every engine's routing
    // slots. The carrier refreshed its own inside ApplyMutations; the call
    // is idempotent, so refresh all four.
    sssp_->RefreshShapes(*shapes);
    if (bfs_) bfs_->RefreshShapes(*shapes);
    if (cc_) cc_->RefreshShapes(*shapes);
    if (pr_) pr_->RefreshShapes(*shapes);

    // Standing answers: PageRank is non-monotonic, so its answer can only
    // be invalidated. A current CC answer refreshes through the bounded
    // delta over its own warm slot when the batch is insertion-only;
    // deletions invalidate it and the next read recomputes.
    std::shared_ptr<const std::vector<uint8_t>> cc;
    if (cc_answer_ != nullptr && !m.has_deletions()) {
      auto out = cc_->RunIncremental(CcQuery{}, m);
      if (out.ok()) {
        waves_.fetch_add(1);
        delta_refreshes_.fetch_add(1);
        cc = EncodeAnswer(out->label);
      }
    }
    PublishAnswers(std::move(cc), nullptr);
    return (epoch_.load() << 32) | static_cast<uint64_t>(++mut_seq_);
  }

  /// Fused multi-source wave: one lane per admitted request, answers split
  /// back per lane. Lane k's bits equal a standalone single-source run's
  /// (apps/ms_sssp.h), so fusion is invisible to clients.
  template <typename App, typename Split>
  void ExecuteWave(std::vector<PendingRequest>& batch,
                   GrapeEngine<App>* engine, Split split) {
    if (engine == nullptr) {
      FailBatch(batch, Status::FailedPrecondition(
                           "no loaded graph (did the last reload fail?)"));
      return;
    }
    typename App::QueryType query;
    std::vector<PendingRequest> admitted;
    admitted.reserve(batch.size());
    for (PendingRequest& req : batch) {
      Decoder dec(req.payload);
      uint32_t source = 0;
      if (!dec.ReadU32(&source).ok()) {
        SendError(req,
                  Status::InvalidArgument("query payload: expected u32 source"));
        continue;
      }
      query.sources.push_back(source);
      admitted.push_back(std::move(req));
    }
    if (admitted.empty()) return;
    auto out = engine->SessionRun(query);
    if (!out.ok()) {
      FailBatch(admitted, out.status());
      return;
    }
    waves_.fetch_add(1);
    if (admitted.size() >= 2) fused_queries_.fetch_add(admitted.size());
    auto lanes = split(std::move(out).value());
    for (size_t k = 0; k < admitted.size(); ++k) {
      Encoder enc;
      enc.WritePodVector(lanes[k]);
      SendOk(admitted[k], enc.TakeBuffer());
    }
  }

  /// CC / PageRank: the answer is a property of the graph, so the first
  /// read of a version computes it and every later read is a cache hit —
  /// usually served at admission by a reader thread — until a mutation
  /// refreshes or invalidates it, or a reload starts a new epoch.
  template <typename App, typename Extract>
  void ExecuteCached(std::vector<PendingRequest>& batch,
                     GrapeEngine<App>* engine, typename App::QueryType query,
                     std::shared_ptr<const std::vector<uint8_t>>* answer,
                     Extract extract) {
    if (engine == nullptr) {
      FailBatch(batch, Status::FailedPrecondition(
                           "no loaded graph (did the last reload fail?)"));
      return;
    }
    std::shared_ptr<const std::vector<uint8_t>> bytes = *answer;
    if (bytes == nullptr) {
      auto out = engine->SessionRun(query);
      if (!out.ok()) {
        FailBatch(batch, out.status());
        return;
      }
      waves_.fetch_add(1);
      bytes = EncodeAnswer(extract(std::move(out).value()));
      std::lock_guard<std::mutex> lk(qu_mu_);
      *answer = bytes;
    } else {
      cache_hits_.fetch_add(batch.size());
    }
    for (const PendingRequest& req : batch) SendOk(req, *bytes);
  }

  // -------------------------------------------------------------- members

  ServeOptions options_;

  // Graph epoch state (dispatcher-owned after Start).
  DistributedGraphMeta meta_;
  std::atomic<uint64_t> epoch_{0};
  std::unique_ptr<GrapeEngine<MsSsspApp>> sssp_;
  std::unique_ptr<GrapeEngine<MsBfsApp>> bfs_;
  std::unique_ptr<GrapeEngine<CcApp>> cc_;
  std::unique_ptr<GrapeEngine<PageRankApp>> pr_;
  /// Set when a mutation failed after reaching the endpoints: every query
  /// and mutation fails with FailedPrecondition until a reload succeeds.
  bool graph_unknown_ = false;

  // Listener / connections.
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> shut_{false};
  std::thread accept_thread_;
  std::thread dispatcher_thread_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> reader_threads_;

  // Admission queue.
  std::mutex qu_mu_;
  std::condition_variable qu_cv_;
  std::deque<PendingRequest> queue_;
  // Guarded by qu_mu_: Mutate/Reload requests admitted and not yet
  // finished, and the standing CC / PageRank answers, pre-encoded and
  // immutable (nullptr: not current). Only the dispatcher replaces the
  // answers; readers serve them at admission while transitions_ is 0.
  uint32_t transitions_ = 0;
  std::shared_ptr<const std::vector<uint8_t>> cc_answer_;
  std::shared_ptr<const std::vector<uint8_t>> pr_answer_;

  // Mutation versioning (dispatcher-owned): intra-epoch sequence of
  // applied batches.
  uint32_t mut_seq_ = 0;
  // True while the dispatcher is inside a superstep wave; reader threads
  // consult it to count deferred epoch transitions.
  std::atomic<bool> wave_active_{false};

  // Stats.
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> waves_{0};
  std::atomic<uint64_t> fused_queries_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> rejected_frames_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> mutations_{0};
  std::atomic<uint64_t> deferred_transitions_{0};
  std::atomic<uint64_t> promoted_mutations_{0};
  std::atomic<uint64_t> delta_refreshes_{0};
};

ServeServer::ServeServer(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

ServeServer::~ServeServer() = default;

Status ServeServer::Start() { return impl_->Start(); }

uint16_t ServeServer::port() const { return impl_->port_; }

uint64_t ServeServer::epoch() const { return impl_->epoch_.load(); }

ServeStats ServeServer::stats() const {
  ServeStats s;
  s.queries = impl_->queries_.load();
  s.waves = impl_->waves_.load();
  s.fused_queries = impl_->fused_queries_.load();
  s.cache_hits = impl_->cache_hits_.load();
  s.errors = impl_->errors_.load();
  s.rejected_frames = impl_->rejected_frames_.load();
  s.reloads = impl_->reloads_.load();
  s.mutations = impl_->mutations_.load();
  s.deferred_transitions = impl_->deferred_transitions_.load();
  s.promoted_mutations = impl_->promoted_mutations_.load();
  s.delta_refreshes = impl_->delta_refreshes_.load();
  return s;
}

void ServeServer::Shutdown() { impl_->Shutdown(); }

}  // namespace grape
