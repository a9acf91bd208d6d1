#ifndef GRAPE_CORE_ENGINE_H_
#define GRAPE_CORE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/pie.h"
#include "graph/mutation.h"
#include "core/worker_core.h"
#include "rt/checkpoint.h"
#include "rt/comm_world.h"
#include "rt/distributed_load.h"
#include "rt/remote_worker.h"
#include "rt/transport.h"
#include "rt/worker_protocol.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace grape {

/// Fault-tolerance policy for remote compute. Off by default (every_k ==
/// 0), in which case the engine behaves — and counts — exactly as it did
/// without this subsystem: no control frames beyond the existing protocol,
/// no retries. When enabled, the remote superstep loop checkpoints every
/// k supersteps, and on an Unavailable failure rebuilds the world in place
/// (Transport::Recover) and resumes from the last completed checkpoint —
/// bit-identically, because each worker image carries the exact buffered
/// message frontier alongside its state. There is no failure detector of
/// its own: a killed endpoint breaks its transport link, which wakes the
/// coordinator's blocked await (AwaitWorkers) with Unavailable.
struct CheckpointPolicy {
  /// Checkpoint every k supersteps; 0 disables checkpointing AND recovery.
  uint32_t every_k = 0;
  /// Empty: worker images ship inline to rank 0's memory (lost if rank 0
  /// dies — out of scope, see README). Non-empty: each worker persists its
  /// image under this directory via CheckpointStore's tmp+rename files,
  /// and restores read them back locally.
  std::string dir;
  /// Give up after this many world rebuilds within one Run.
  uint32_t max_recoveries = 3;

  bool enabled() const { return every_k > 0; }
};

/// Engine configuration (the demo's "play panel" knobs).
struct EngineOptions {
  /// Hard stop against non-terminating (non-monotonic, mis-specified) apps.
  uint32_t max_supersteps = 1000000;
  /// When false, every round re-evaluates from *all* inner vertices instead
  /// of only the message-affected ones — the "no IncEval" ablation used by
  /// bench_inceval_bounded to demonstrate boundedness (Sec. 2.2(2)).
  bool incremental = true;
  /// Track the partial order of monotonic aggregators and count violations
  /// (the Assurance Theorem's side condition).
  bool check_monotonicity = false;
  bool verbose = false;
  /// Message-passing substrate. When null the engine owns a private
  /// in-process CommWorld (the historical behaviour); otherwise it runs
  /// over the supplied backend — a TcpTransport from
  /// MakeTransport("tcp", n+1) (auto-spawned loopback endpoints), or a
  /// multi-machine tcp world from rt/cluster.h's MakeClusterTransport —
  /// which must be sized num_fragments()+1 and outlive the engine. Not
  /// owned. The engine is substrate-agnostic: it only ever Sends, Flushes
  /// between supersteps, and drains mailboxes, so any backend passing
  /// tests/transport_conformance_test.cc slots in with bit-identical
  /// results (tests/message_path_golden_test.cc).
  Transport* transport = nullptr;
  /// Remote compute: when non-empty, PEval/IncEval/GetPartial do NOT run
  /// inline in this (rank-0) process. Each fragment is resident in its
  /// rank's worker host — the endpoint process on the tcp backend, an
  /// in-process worker thread on inproc — which executes the phases
  /// against its own store and ships back messages, per-phase counters,
  /// and a final remote partial (rt/worker_protocol.h).
  /// The value names the PIE program in WorkerAppRegistry ("sssp", ...);
  /// endpoint processes must have registered it before the transport
  /// forked them (apps/register_apps.h RegisterBuiltinWorkerApps).
  /// Results, CommStats, and superstep counts are bit-identical to local
  /// compute — frozen by tests/message_path_golden_test.cc.
  std::string remote_app;
  /// Per-phase budget for remote workers to answer before the engine
  /// gives up with Unavailable. A dead endpoint surfaces sooner: its
  /// broken link wakes the blocked await at once.
  int remote_timeout_ms = 120000;
  /// Superstep checkpointing + automatic recovery (remote compute only;
  /// drivers resolve --ckpt-every / --ckpt-dir here).
  CheckpointPolicy checkpoint;
  /// Observability/test hook: invoked after each remote superstep's round
  /// is recorded (and after its checkpoint, when one was due) with the
  /// completed superstep count. Fault-injection tests use it to kill
  /// endpoints at exact barriers.
  std::function<void(uint32_t)> on_superstep;
};

/// Per-superstep observability (drives the Fig. 3(4)-style analytics).
struct RoundMetrics {
  uint32_t round = 0;
  double seconds = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  /// Update parameters whose values changed in this round's messages.
  uint64_t updated_params = 0;
  double global = 0;
};

struct EngineMetrics {
  uint32_t supersteps = 0;
  /// Remote runs only: time from the cold load's first frame until every
  /// worker acked its load — the token attach, plus the deposit when this
  /// run made it. Zero on local compute, where fragments are resident from
  /// engine construction.
  double load_seconds = 0;
  double peval_seconds = 0;
  double inceval_seconds = 0;
  double coordinator_seconds = 0;
  double assemble_seconds = 0;
  double total_seconds = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t monotonicity_violations = 0;
  /// Set when RunIncremental's enforced monotonicity contract rejected the
  /// warm start (non-monotonic aggregator, or a batch with deletions under
  /// a min-style order) and the answer came from a full re-run instead.
  /// The answer is always correct; this records that it was not bounded.
  bool incremental_fallback = false;
  std::vector<RoundMetrics> rounds;

  /// Remote-compute observability (empty after a local-compute run): the
  /// OS process id each worker's phases executed in, and how many
  /// PEval/IncEval invocations each worker acknowledged. The pids are the
  /// proof of placement — on the tcp backend they are endpoint
  /// processes, not the engine's pid (asserted by tests/cluster_test.cc).
  std::vector<uint64_t> remote_worker_pids;
  std::vector<uint32_t> remote_peval_runs;
  std::vector<uint32_t> remote_inceval_runs;

  /// Fault tolerance (all zero when CheckpointPolicy is off): completed
  /// checkpoint barriers, total encoded image bytes, wall time spent at
  /// those barriers, and world rebuilds this run survived.
  uint32_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  double checkpoint_seconds = 0;
  uint32_t recoveries = 0;

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "supersteps=%u total=%.3fs (peval=%.3fs inceval=%.3fs "
                  "coord=%.3fs assemble=%.3fs) msgs=%llu bytes=%llu",
                  supersteps, total_seconds, peval_seconds, inceval_seconds,
                  coordinator_seconds, assemble_seconds,
                  static_cast<unsigned long long>(messages),
                  static_cast<unsigned long long>(bytes));
    std::string out = buf;
    // Appended only when fault tolerance did something, so policy-off
    // output is byte-identical to what it always was.
    if (checkpoints > 0 || recoveries > 0) {
      std::snprintf(buf, sizeof(buf),
                    " ckpts=%u ckpt_bytes=%llu ckpt=%.3fs recoveries=%u",
                    checkpoints,
                    static_cast<unsigned long long>(checkpoint_bytes),
                    checkpoint_seconds, recoveries);
      out += buf;
    }
    return out;
  }
};

/// GRAPE's parallel engine (Sec. 2.2): a coordinator P0 plus n workers
/// executing the PIE fixed point under BSP. Workers run the *sequential*
/// PEval / IncEval of the plugged-in program on whole fragments; the engine
/// extracts changed update parameters, serializes them, routes them through
/// the coordinator (which resolves conflicts with the app's aggregate
/// function), and terminates when no parameter changes anywhere.
///
/// Two placements, one superstep loop each:
///
///  * local compute (default): each worker is a WorkerCore driven inline
///    by this process's thread pool, one thread per fragment. Run is the
///    only entry point (RunLocal: PEval, then IncEval to the fixed point).
///  * remote compute (EngineOptions::remote_app): each worker is the same
///    WorkerCore, but executing inside its rank's worker host — the
///    endpoint OS process on tcp, an in-process thread on inproc —
///    driven through the control frames of rt/worker_protocol.h. The
///    engine keeps only the coordinator role: route, aggregate, decide
///    termination, assemble; it builds no thread pool and no cores. Every
///    cold load attaches the fragments resident under a token: fg_ is read
///    only to deposit them (DepositFragments), once, and again only after
///    Transport::Recover or a failed ApplyMutations. Run,
///    SessionRun and the incremental delta all go through one driver,
///    DriveRemote, that differs only in its opening: a cold load, a warm
///    query re-seed, or a warm IncEval start (plus Run's checkpoint
///    restore). Every remote wait goes through one await skeleton,
///    AwaitWorkers. The engine's app slot in the worker hosts lives from
///    the cold load until EndSession(), the only place that retires it;
///    Run calls it after every attempt, sessions keep their slot until it
///    is called.
///
/// Incremental evaluation across graph updates (Q(G ⊕ M) from Q(G),
/// Sec. 2.1) has one shape: SessionRun, ApplyMutations, then
/// RunIncremental(query, batch) over the live session's resident state,
/// on any transport (inproc hosts run in-thread).
template <PIEProgram App>
class GrapeEngine {
 public:
  using Query = typename App::QueryType;
  using Value = typename App::ValueType;
  using Agg = typename App::AggregatorType;
  using Partial = typename App::PartialType;
  using Output = typename App::OutputType;

  GrapeEngine(const FragmentedGraph& fg, App prototype,
              EngineOptions options = {})
      : fg_(&fg),
        n_frags_(fg.num_fragments()),
        total_vertices_(fg.total_vertices),
        options_(options),
        owned_world_(options.transport ? nullptr
                                       : std::make_unique<CommWorld>(
                                             fg.num_fragments() + 1)),
        world_(options.transport ? options.transport : owned_world_.get()) {
    const FragmentId n = n_frags_;
    GRAPE_CHECK(world_->size() == n + 1)
        << "transport sized " << world_->size() << " for " << n
        << " fragments (need num_fragments()+1 ranks)";
    // Remote compute runs the cores inside the worker hosts; only local
    // compute needs them here, with one pool thread per fragment.
    if (options_.remote_app.empty()) {
      pool_.emplace(n);
      cores_.reserve(n);
      for (FragmentId i = 0; i < n; ++i) {
        cores_.emplace_back(fg_->fragments[i], prototype);
      }
      phase_status_.assign(n, Status::OK());
      pending_sends_.resize(n);
    }

    coord_batches_.resize(n);
    for (FragmentId i = 0; i < n; ++i) {
      SizeSlots(i, fg_->fragments[i].num_local());
    }
  }

  /// Distributed-load engine: the graph was built in place by
  /// DistributedLoad on the same `options.transport` world; this engine
  /// holds only `meta` — fragment shapes and the build token — and runs
  /// the pure coordinator role. Every query executes remotely
  /// (options.remote_app must name the app); each worker attaches to the
  /// fragment resident under the meta's token in its own process (a
  /// DepositFragments meta works the same). Rank 0 never constructs,
  /// decodes, or serializes a fragment on this path.
  GrapeEngine(const DistributedGraphMeta& meta, EngineOptions options)
      : fg_(nullptr),
        n_frags_(meta.num_fragments),
        total_vertices_(meta.total_vertices),
        resident_token_(meta.token),
        options_(options),
        owned_world_(nullptr),
        world_(options.transport) {
    const FragmentId n = n_frags_;
    GRAPE_CHECK(world_ != nullptr)
        << "a distributed-load engine reuses the build's transport";
    GRAPE_CHECK(world_->size() == n + 1)
        << "transport sized " << world_->size() << " for " << n
        << " fragments (need num_fragments()+1 ranks)";
    GRAPE_CHECK(!options_.remote_app.empty())
        << "distributed-load engines execute remotely; set remote_app";
    GRAPE_CHECK(meta.shapes.size() == n)
        << "distributed meta carries " << meta.shapes.size()
        << " fragment shapes for " << n << " fragments";
    coord_batches_.resize(n);
    for (FragmentId i = 0; i < n; ++i) SizeSlots(i, meta.shapes[i].num_local);
  }

  GrapeEngine(const GrapeEngine&) = delete;
  GrapeEngine& operator=(const GrapeEngine&) = delete;

  /// Runs the full PEval → IncEval* → Assemble pipeline for one query.
  Result<Output> Run(const Query& query) {
    // A live session's resident hosts would race this run for the same
    // mailboxes; retire them first. No-op unless SessionRun was used.
    EndSession();
    if (!options_.remote_app.empty()) {
      if constexpr (RemoteCompatibleApp<App>) {
        return RunRemote(query);
      } else {
        return Status::InvalidArgument(
            "remote compute requires wire-codable Query/Partial/Value "
            "types; this app must run locally");
      }
    }
    if (fg_ == nullptr) {
      return Status::InvalidArgument(
          "a distributed-load engine has no local fragments; local compute "
          "is impossible (set remote_app)");
    }
    return RunLocal(query);
  }

  /// Streams one edge-mutation batch into the world's resident fragments:
  /// every endpoint rebuilds its fragment in place around the batch
  /// (graph/mutation.h semantics — upsert inserts, delete-all-matches
  /// deletions), re-resolves its routing plan peer-to-peer, and re-seats
  /// EVERY live app slot on the rebuilt fragment with warm parameter
  /// values for its outer set pulled from the owners — so the converged
  /// answer state of each live session on the world (this engine's and
  /// any other's) survives the topology change, and each can re-answer
  /// with RunIncremental. Returns each fragment's rebuilt shape. This
  /// engine's routing slots are refreshed here; any OTHER engine attached
  /// to the same resident fragments must be handed the shapes via
  /// RefreshShapes(). No live session is needed: the batch names the
  /// resident token (depositing fg_ first if needed), and every later cold
  /// load on the token attaches to the patched copy, never to fg_. A
  /// failure may leave the copies disagreeing: it ends the session, and a
  /// coordinator-loaded engine re-deposits the unmutated fg_.
  Result<std::vector<WkBuildAck>> ApplyMutations(const MutationBatch& batch) {
    if constexpr (RemoteCompatibleApp<App>) {
      if (options_.remote_app.empty()) {
        return Status::InvalidArgument(
            "ApplyMutations streams updates into remote workers; local "
            "engines mutate their graph directly "
            "(FragmentBuilder::MutateFragmentedGraph)");
      }
      GRAPE_RETURN_NOT_OK(batch.Validate(total_vertices_));
      // Keep the world's in-thread hosts up for the call even without a
      // live session of our own.
      std::shared_ptr<InThreadWorkers> hosts =
          session_live_ ? hosts_ : InThreadWorkers::Share(world_, n_frags_);
      Result<std::vector<WkBuildAck>> shapes = ApplyMutationsImpl(batch);
      if (!shapes.ok()) {
        EndSession();
        DropDeposit();
      }
      return shapes;
    } else {
      return Status::InvalidArgument(
          "query sessions require wire-codable Query/Partial/Value types");
    }
  }

  /// Incremental evaluation across graph updates (Sec. 2.1: IncEval
  /// computes Q(G ⊕ M) from Q(G)) over a live session. `batch` must
  /// already have been applied with ApplyMutations(); this re-answers the
  /// session's LAST query (which must equal `query`), warm-starting
  /// IncEval inside the worker hosts from the converged state resident
  /// there, seeded with the batch's touched vertices — work proportional
  /// to the affected region, not |G|. Apps whose Query/Partial/Value
  /// types are not wire-codable have no session, so no incremental path.
  ///
  /// Enforced monotonicity contract (the Assurance Theorem's side
  /// condition): a min-style warm start is only sound for change that
  /// moves values down the order. Non-monotonic aggregators, and any
  /// batch containing deletions, take a full re-run of the query instead
  /// (reported via metrics().incremental_fallback) — never a silently
  /// stale answer. So do apps with private state (CheckpointableApp): a
  /// mutation re-seats each worker's app slot with a fresh App, so only
  /// the parameter store survives to warm-start from. The full re-run
  /// reads the patched resident fragments, never fg_.
  Result<Output> RunIncremental(const Query& query,
                                const MutationBatch& batch) {
    if constexpr (RemoteCompatibleApp<App>) {
      if (options_.remote_app.empty()) {
        return Status::InvalidArgument(
            "incremental evaluation answers over a live query session; set "
            "remote_app (the inproc transport hosts the workers in-thread)");
      }
      if (!Agg::kMonotonic || batch.has_deletions() ||
          CheckpointableApp<App>) {
        return FullRunFallback(query);
      }
      return RunOnSession(query, Opening::kIncStart, batch.TouchedVertices());
    } else {
      return Status::InvalidArgument(
          "query sessions require wire-codable Query/Partial/Value types");
    }
  }

  /// Re-sizes the coordinator's routing slots to new fragment shapes (a
  /// mutation changes per-fragment num_local). The engine that applied the
  /// batch refreshes itself inside ApplyMutations; serving keeps several
  /// engines attached to the same resident fragments and refreshes the
  /// others through this. Safe only between runs — slots carry no
  /// cross-run state (RouteInbox's round counter advances past every
  /// stale slot_round on its first use).
  void RefreshShapes(const std::vector<WkBuildAck>& shapes) {
    GRAPE_CHECK(shapes.size() == coord_batches_.size());
    for (FragmentId i = 0; i < n_frags_; ++i) SizeSlots(i, shapes[i].num_local);
  }

  /// Query-session entry point (the serving layer's hot path): like
  /// Run(), but the remote workers stay loaded between calls. The first
  /// SessionRun performs the cold load (attaching to the resident
  /// fragments) into this engine's app slot — keyed by remote_app — in
  /// every endpoint; every later call re-seeds that slot with just the
  /// next query over kTagWkQuery, then runs the identical PEval →
  /// IncEval* → Assemble superstep loop. Answers are bit-identical to
  /// Run(): the per-query state (parameter store, update sets, message
  /// expectations) is rebuilt from scratch on both paths; only the
  /// fragment survives between queries. Sessions reject CheckpointPolicy
  /// (a session's unit of retry is the query — the caller just re-runs
  /// it; on failure the session is torn down and the next call
  /// cold-starts).
  ///
  /// Sessions of engines with different remote_app names may be live on
  /// one world at once, each warm in its own slot over the endpoints' one
  /// resident fragment; grape_serve keeps one per query class. Their
  /// queries must not overlap in time (one coordinator drives the world
  /// at a time), and they must share the fragment: a cold load that
  /// attaches another token retires every other slot, whose next call
  /// then fails and cold-starts. Two engines with the same remote_app
  /// share a slot, so the later load replaces the earlier engine's
  /// session.
  Result<Output> SessionRun(const Query& query) {
    if constexpr (RemoteCompatibleApp<App>) {
      if (options_.remote_app.empty()) {
        return Status::InvalidArgument(
            "query sessions execute remotely; set remote_app");
      }
      if (options_.checkpoint.enabled()) {
        return Status::InvalidArgument(
            "query sessions do not support checkpoint/recovery; the retry "
            "unit is the query itself");
      }
      return RunOnSession(query,
                          session_live_ ? Opening::kQuery : Opening::kLoad);
    } else {
      return Status::InvalidArgument(
          "query sessions require wire-codable Query/Partial/Value types");
    }
  }

  /// Retires this engine's app slot: best-effort shutdown frames naming
  /// the slot, then this engine's hold on the world's in-thread hosts
  /// (inproc) is released — the last holder stops and joins them. Every
  /// other engine's slot on the world stays warm. The one retirement path
  /// — Run calls it after every attempt, sessions keep their slot until
  /// it runs. The resident fragments stay, for the next cold load.
  /// Idempotent; also runs on destruction and before any Run() on this
  /// engine.
  void EndSession() {
    if (session_live_) {
      (void)SendToWorkers(kTagWkShutdown, [&](FragmentId, Encoder& enc) {
        enc.WriteString(options_.remote_app);
      });
    }
    hosts_.reset();
    session_live_ = false;
  }

  ~GrapeEngine() {
    DropDeposit();
    EndSession();
  }

  const EngineMetrics& metrics() const { return metrics_; }

  /// Post-run parameter access (tests assert on converged stores). Local
  /// compute only: remote workers keep their stores in their own hosts.
  const ParamStore<Value>& params(FragmentId i) const {
    GRAPE_CHECK(i < cores_.size()) << "remote engines hold no stores";
    return cores_[i].store();
  }

  FragmentId num_workers() const { return n_frags_; }

 private:
  /// Rank of worker i in the comm world (rank 0 is the coordinator).
  static uint32_t RankOf(FragmentId i) { return i + 1; }

  /// Sizes the coordinator's routing slots for fragment i's num_local.
  void SizeSlots(FragmentId i, LocalId num_local) {
    CoordBatch& batch = coord_batches_[i];
    batch.slot_round.assign(num_local, 0);
    batch.slot_pos.assign(num_local, 0);
    batch.round = 0;
    batch.lids.clear();
    batch.values.clear();
  }

  /// Deposits fg_ unless a token is resident; a re-deposit after mutations
  /// returns the routing slots to fg_'s shapes.
  Status EnsureDeposited() {
    if (resident_token_ != 0 || fg_ == nullptr) return Status::OK();
    DistributedGraphMeta meta;
    GRAPE_ASSIGN_OR_RETURN(
        meta, DepositFragments(world_, *fg_, options_.remote_timeout_ms));
    for (FragmentId i = 0; i < n_frags_; ++i) {
      SizeSlots(i, meta.shapes[i].num_local);
    }
    resident_token_ = meta.token;
    return Status::OK();
  }

  /// Releases this engine's own deposit; EnsureDeposited makes a new one.
  void DropDeposit() {
    if (fg_ == nullptr || resident_token_ == 0) return;
    ReleaseResident(world_, resident_token_);
    resident_token_ = 0;
  }

  /// The enforced contract's answer when a warm start would be unsound: a
  /// full run of `query` over the live session, flagged by
  /// metrics().incremental_fallback.
  Result<Output> FullRunFallback(const Query& query) {
    Result<Output> out = SessionRun(query);
    metrics_.incremental_fallback = true;
    return out;
  }

  Status CheckPhase() {
    for (Status& s : phase_status_) {
      if (!s.ok()) {
        Status out = s;
        s = Status::OK();
        return out;
      }
    }
    return Status::OK();
  }

  /// Zeroes what one run accumulates: metrics, the CommStats views with
  /// their recovery bases, and the routed inbox.
  void ResetRunState() {
    metrics_ = EngineMetrics{};
    world_->ResetStats();
    recorded_messages_ = 0;
    recorded_bytes_ = 0;
    extra_messages_ = 0;
    extra_bytes_ = 0;
    base_messages_ = 0;
    base_bytes_ = 0;
    remote_inbox_.clear();
  }

  void RecordRound(double seconds, uint64_t updated_params) {
    // Running totals, not a re-sum of all prior rounds (which made this
    // O(rounds^2) over a long fixed point). Remote compute adds the
    // ack-reported worker flush traffic, which never passes through a
    // rank-0 Send on multi-process backends.
    // base_* splice a pre-recovery world's totals in front of the rebuilt
    // transport's counters (zero until the first recovery), so replayed
    // rounds re-count identically to the fault-free run.
    CommStats cs = world_->stats();
    RoundMetrics rm;
    rm.round = metrics_.supersteps;
    rm.seconds = seconds;
    rm.messages =
        base_messages_ + cs.messages + extra_messages_ - recorded_messages_;
    rm.bytes = base_bytes_ + cs.bytes + extra_bytes_ - recorded_bytes_;
    recorded_messages_ = base_messages_ + cs.messages + extra_messages_;
    recorded_bytes_ = base_bytes_ + cs.bytes + extra_bytes_;
    rm.updated_params = updated_params;
    metrics_.rounds.push_back(rm);
  }

  void FinishMetrics(const WallTimer& total_timer) {
    CommStats cs = world_->stats();
    metrics_.messages = base_messages_ + cs.messages + extra_messages_;
    metrics_.bytes = base_bytes_ + cs.bytes + extra_bytes_;
    uint64_t mono = 0;
    if (metrics_.remote_worker_pids.empty()) {
      for (const auto& core : cores_) mono += core.monotonicity_violations();
    } else {
      for (uint64_t v : remote_mono_) mono += v;
    }
    metrics_.monotonicity_violations = mono;
    metrics_.total_seconds = total_timer.ElapsedSeconds();
  }

  uint64_t TotalDirty() const {
    uint64_t total = 0;
    for (const auto& core : cores_) total += core.flush_dirty();
    return total;
  }

  uint64_t TotalUpdated() const {
    uint64_t total = 0;
    for (const auto& core : cores_) total += core.updated().size();
    return total;
  }

  // ------------------------------------------------------- local compute

  /// The local fixed point. Superstep 1 is PEval; every later superstep:
  /// the coordinator routes, workers IncEval.
  Result<Output> RunLocal(const Query& query) {
    WallTimer total_timer;
    ResetRunState();
    const FragmentId n = n_frags_;
    for (FragmentId i = 0; i < n; ++i) {
      cores_[i].Reset(options_.check_monotonicity);
    }

    // Messages are staged inside each parallel phase and dispatched after
    // the barrier, so nothing a worker sends can be consumed in the same
    // superstep (BSP delivery semantics).
    {
      ScopedTimer t(&metrics_.peval_seconds);
      pool_->ParallelFor(0, n, [&](size_t i) {
        cores_[i].PEval(query);
        cores_[i].Flush(world_->buffer_pool(), &pending_sends_[i]);
      });
      metrics_.supersteps = 1;
    }
    GRAPE_RETURN_NOT_OK(CheckPhase());
    uint64_t direct = 0;
    GRAPE_ASSIGN_OR_RETURN(direct, DispatchSends());
    RecordRound(0.0, TotalUpdated());
    uint64_t dirty = TotalDirty();

    // Termination per Sec. 2.2(3): every worker inactive and no update
    // parameter changed anywhere — i.e. neither in-flight messages (routed
    // through the coordinator or sent directly) nor local parameter changes
    // (dirty) remain.
    while (metrics_.supersteps < options_.max_supersteps) {
      double global = 0;
      for (FragmentId i = 0; i < n; ++i) global += cores_[i].GlobalValue();
      metrics_.rounds.back().global = global;
      if (AppShouldTerminate<App>(query, metrics_.supersteps, global)) break;

      uint64_t routed = 0;
      {
        ScopedTimer t(&metrics_.coordinator_seconds);
        GRAPE_ASSIGN_OR_RETURN(routed, CoordinatorRoute());
      }
      if (routed + direct == 0 && dirty == 0) break;  // simultaneous fixpoint

      WallTimer round_timer;
      {
        ScopedTimer t(&metrics_.inceval_seconds);
        pool_->ParallelFor(0, n, [&](size_t i) {
          auto fid = static_cast<FragmentId>(i);
          Status s = ApplyMessages(fid);
          if (!s.ok()) {
            phase_status_[i] = s;
            return;
          }
          cores_[i].IncEval(query, options_.incremental);
          cores_[i].Flush(world_->buffer_pool(), &pending_sends_[i]);
        });
      }
      metrics_.supersteps++;
      GRAPE_RETURN_NOT_OK(CheckPhase());
      GRAPE_ASSIGN_OR_RETURN(direct, DispatchSends());
      RecordRound(round_timer.ElapsedSeconds(), TotalUpdated());
      dirty = TotalDirty();
      if (options_.verbose) {
        GRAPE_LOG(kInfo) << "superstep " << metrics_.supersteps << ": "
                         << metrics_.rounds.back().messages << " msgs";
      }
    }

    // Termination: pull partial results and Assemble at the coordinator.
    Output output;
    {
      ScopedTimer t(&metrics_.assemble_seconds);
      std::vector<Partial> partials(n);
      pool_->ParallelFor(0, n, [&](size_t i) {
        partials[i] = cores_[i].GetPartial(query);
      });
      output = App::Assemble(query, std::move(partials));
    }
    FinishMetrics(total_timer);
    return output;
  }

  /// Ships every staged buffer (runs between parallel phases); returns the
  /// number of directly-sent updates (coordinator-bound updates are counted
  /// when routed). A failed Send surfaces as a Status like every other
  /// engine phase rather than aborting the process. The trailing Flush is
  /// the BSP delivery barrier: on asynchronous backends (tcp) it blocks
  /// until every frame is visible at its destination, so the next phase
  /// observes exactly what an in-process mailbox would.
  Result<uint64_t> DispatchSends() {
    uint64_t direct = 0;
    for (FragmentId i = 0; i < n_frags_; ++i) {
      for (WorkerSend& p : pending_sends_[i]) {
        direct += p.direct_updates;
        GRAPE_RETURN_NOT_OK(world_->Send(RankOf(i), p.dst_rank,
                                         kTagParamUpdate,
                                         std::move(p.payload)));
      }
      pending_sends_[i].clear();
    }
    GRAPE_RETURN_NOT_OK(world_->Flush());
    return direct;
  }

  /// Coordinator step: collects all pending parameter updates, resolves
  /// conflicts per (destination, vertex) with the app's aggregate function,
  /// and forwards one consolidated buffer to each destination worker.
  /// Returns the number of routed updates (0 signals the fixed point).
  Result<uint64_t> CoordinatorRoute() {
    std::vector<RtMessage> inbox = world_->DrainAll(kCoordinatorRank);
    if (inbox.empty()) return uint64_t{0};
    uint64_t routed = 0;
    GRAPE_ASSIGN_OR_RETURN(
        routed, RouteInbox(std::move(inbox), kTagParamUpdate, nullptr));
    // Delivery barrier: consolidated batches must reach the workers before
    // the ApplyMessages phase starts polling its mailboxes.
    GRAPE_RETURN_NOT_OK(world_->Flush());
    return routed;
  }

  /// The mode-independent coordinator: aggregates an inbox of owner-bound
  /// record batches and sends one consolidated buffer per destination
  /// worker under `send_tag` (kTagParamUpdate locally, kTagWkApply for
  /// remote workers — the one worker-protocol frame CommStats counts,
  /// because this Send exists identically in both modes). When
  /// `apply_counts` is non-null it receives the number of batches sent to
  /// each fragment — the remote round's per-worker delivery expectation.
  Result<uint64_t> RouteInbox(std::vector<RtMessage> inbox, uint32_t send_tag,
                              std::vector<uint32_t>* apply_counts) {
    if (apply_counts != nullptr) {
      apply_counts->assign(n_frags_, 0);
    }
    if (inbox.empty()) return uint64_t{0};
    // Mailbox order is FIFO per sender; sort by sender for a deterministic
    // merge independent of thread scheduling.
    std::stable_sort(inbox.begin(), inbox.end(),
                     [](const RtMessage& a, const RtMessage& b) {
                       return a.from < b.from;
                     });

    // Dense aggregation: one persistent slot array per destination,
    // indexed by dst_lid. Round tags take the place of clearing — a slot
    // holding an older round number is vacant this round — so the O(|F_i|)
    // arrays are never re-initialized. First-seen append order plus the
    // sender sort above reproduces the seed path's merge order exactly.
    ++coord_round_;
    coord_touched_.clear();
    for (RtMessage& msg : inbox) {
      Decoder dec(msg.payload);
      uint32_t dst = 0;
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&dst));
      if (dst >= coord_batches_.size()) {
        return Status::Corruption("routed batch for unknown fragment " +
                                  std::to_string(dst));
      }
      GRAPE_RETURN_NOT_OK(
          DecodeRecordBlock(dec, &route_lids_, &route_values_));
      CoordBatch& batch = coord_batches_[dst];
      if (batch.round != coord_round_) {
        batch.round = coord_round_;
        batch.lids.clear();
        batch.values.clear();
        coord_touched_.push_back(dst);
      }
      for (size_t k = 0; k < route_lids_.size(); ++k) {
        const LocalId lid = route_lids_[k];
        if (lid >= batch.slot_round.size()) {
          return Status::Corruption("routed update addresses lid " +
                                    std::to_string(lid) +
                                    " outside fragment " +
                                    std::to_string(dst));
        }
        if (batch.slot_round[lid] != coord_round_) {
          batch.slot_round[lid] = coord_round_;
          batch.slot_pos[lid] = static_cast<uint32_t>(batch.lids.size());
          batch.lids.push_back(lid);
          batch.values.push_back(std::move(route_values_[k]));
        } else {
          Agg::Aggregate(batch.values[batch.slot_pos[lid]],
                         route_values_[k]);
        }
      }
      world_->buffer_pool().Release(std::move(msg.payload));
    }

    std::sort(coord_touched_.begin(), coord_touched_.end());

    uint64_t routed = 0;
    for (FragmentId dst : coord_touched_) {
      CoordBatch& batch = coord_batches_[dst];
      Encoder enc(world_->buffer_pool().Acquire());
      EncodeOwnedRecords(enc, batch.lids, batch.values);
      routed += batch.lids.size();
      if (apply_counts != nullptr) (*apply_counts)[dst]++;
      GRAPE_RETURN_NOT_OK(world_->Send(kCoordinatorRank, RankOf(dst),
                                       send_tag, enc.TakeBuffer()));
    }
    return routed;
  }

  /// Applies routed updates to worker i's parameters via the aggregate
  /// function; vertices whose value actually changed form M_i, the update
  /// set handed to IncEval.
  Status ApplyMessages(FragmentId i) {
    cores_[i].BeginApply();
    while (auto msg = world_->TryRecv(RankOf(i), kTagParamUpdate)) {
      GRAPE_RETURN_NOT_OK(cores_[i].ApplyBatch(msg->payload));
      world_->buffer_pool().Release(std::move(msg->payload));
    }
    cores_[i].FinishApply();
    return Status::OK();
  }

  // ------------------------------------------------------ remote compute

  /// One awaited remote phase: every worker's ack folded together, with
  /// per-fragment detail where the engine needs it.
  struct RemoteRound {
    uint64_t dirty = 0;
    uint64_t direct_updates = 0;
    uint64_t updated_count = 0;
    uint64_t sent_messages = 0;
    uint64_t sent_bytes = 0;
    std::vector<double> global_by_frag;  // summed in fragment order
    std::vector<uint64_t> mono_by_frag;  // cumulative per worker
    /// direct_matrix[src][dst]: kTagWkDirect frames worker src shipped to
    /// worker dst this phase — next round's delivery expectations.
    std::vector<std::vector<uint32_t>> direct_matrix;

    double GlobalSum() const {
      // Fragment order, matching the local loop's summation order, so a
      // borderline floating-point termination check cannot diverge.
      double g = 0;
      for (double v : global_by_frag) g += v;
      return g;
    }

    /// (sender rank, frames) for every peer that shipped worker `dst`
    /// direct frames this phase — what the next command tells it to await.
    std::vector<std::pair<uint32_t, uint32_t>> DirectInto(
        FragmentId dst) const {
      std::vector<std::pair<uint32_t, uint32_t>> expect;
      for (FragmentId s = 0; s < direct_matrix.size(); ++s) {
        if (direct_matrix[s][dst] > 0) {
          expect.emplace_back(RankOf(s), direct_matrix[s][dst]);
        }
      }
      return expect;
    }
  };

  /// Coordinator state at a checkpoint barrier — everything the superstep
  /// loop needs to resume exactly where a failed attempt left off, paired
  /// with the worker images in ckpt_store_. The comm_* bases keep
  /// CommStats-derived views continuous across a world rebuild, whose
  /// fresh transport counts from zero.
  struct CoordSnapshot {
    bool valid = false;
    uint32_t supersteps = 0;
    /// The barrier round whole: dirty/direct/global resume from it and its
    /// direct_matrix seeds the next round's delivery expectations.
    RemoteRound round;
    /// Deep copies of the routed-but-unconsumed worker data frames
    /// (remote_inbox_), as (from, payload) pairs.
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> inbox;
    EngineMetrics metrics;
    uint64_t extra_messages = 0;
    uint64_t extra_bytes = 0;
    uint64_t recorded_messages = 0;
    uint64_t recorded_bytes = 0;
    uint64_t comm_messages = 0;
    uint64_t comm_bytes = 0;
    std::vector<uint64_t> remote_mono;
  };

  /// How a remote query reaches its first completed superstep.
  enum class Opening {
    kLoad,      // kTagWkLoad + kTagWkRunPEval: fresh worker hosts
    kQuery,     // kTagWkQuery + kTagWkRunPEval: a live session's next query
    kIncStart,  // kTagWkIncStart(touched): warm IncEval round 1, no re-seed
    kRestore,   // kTagWkRestore: Run's recovery, resuming at a checkpoint
  };

  /// Remote compute with fault tolerance: each attempt runs the full
  /// pipeline; when a CheckpointPolicy is enabled and an attempt dies with
  /// Unavailable (endpoint SIGKILLed, transport broken or timed out), the
  /// world is rebuilt in place (Transport::Recover) and the
  /// next attempt resumes from the last completed checkpoint. With the
  /// policy off this degenerates to exactly one attempt with no added
  /// control traffic.
  Result<Output> RunRemote(const Query& query)
    requires RemoteCompatibleApp<App>
  {
    run_recoveries_ = 0;
    snapshot_ = CoordSnapshot{};
    ckpt_store_ = CheckpointStore(options_.checkpoint.dir);
    // A previous run's images must never satisfy this run's restores: a
    // stale file with a matching (rank, round) would restore cleanly and
    // silently compute over the wrong graph/query. Start from nothing.
    ckpt_store_.Clear();
    for (;;) {
      Result<Output> out = DriveRemote(
          query, run_recoveries_ > 0 && snapshot_.valid ? Opening::kRestore
                                                        : Opening::kLoad);
      metrics_.recoveries = run_recoveries_;
      // A one-shot run's workers never outlive the attempt, and no
      // in-thread host may straddle a world rebuild.
      EndSession();
      if (out.ok()) return out;
      const CheckpointPolicy& cp = options_.checkpoint;
      // Recoverable means: the failure is a death, not an app error; the
      // policy allows another attempt; the backend can rebuild the world;
      // and there is something to resume from — a checkpoint, or (lacking
      // one yet) a coordinator-held graph to cold-restart with. A
      // distributed-load engine that dies before its first checkpoint is
      // unrecoverable: the resident fragments died with the endpoints.
      if (!out.status().IsUnavailable() || !cp.enabled() ||
          run_recoveries_ >= cp.max_recoveries ||
          !world_->supports_recovery() ||
          !(snapshot_.valid || fg_ != nullptr)) {
        return out;
      }
      if (options_.verbose) {
        GRAPE_LOG(kInfo) << "recovering world after: "
                         << out.status().ToString();
      }
      if (Status r = world_->Recover(); !r.ok()) {
        return out;  // rebuild failed: surface the original death
      }
      // Respawned endpoints start with empty stores.
      DropDeposit();
      ++run_recoveries_;
    }
  }

  /// One query over the persistent worker session. Any failure
  /// invalidates the session wholesale — workers may be mid-phase with
  /// frames in flight — so the next call cold-starts, and the stale drain
  /// swallows whatever this one left.
  Result<Output> RunOnSession(const Query& query, Opening opening,
                              const std::vector<VertexId>& touched = {})
    requires RemoteCompatibleApp<App>
  {
    if (opening == Opening::kIncStart && !session_live_) {
      return Status::FailedPrecondition(
          "incremental evaluation rides a live query session: SessionRun "
          "the query, ApplyMutations the batch, then RunIncremental "
          "re-answers that same query");
    }
    Result<Output> out = DriveRemote(query, opening, touched);
    if (!out.ok()) EndSession();
    return out;
  }

  /// The one remote superstep driver. `opening` brings the workers to a
  /// completed superstep 1 — or, for kRestore, back to the last checkpoint
  /// barrier. Every later superstep is the same: termination check, route,
  /// IncEval command, RecordRound, checkpoint, on_superstep. GetPartial +
  /// Assemble close the query. A cold load deposits fg_ first if needed.
  /// Worker retirement is left to the caller (EndSession).
  Result<Output> DriveRemote(const Query& query, Opening opening,
                             const std::vector<VertexId>& touched = {})
    requires RemoteCompatibleApp<App>
  {
    WallTimer total_timer;
    ResetRunState();
    const FragmentId n = n_frags_;
    metrics_.remote_worker_pids.assign(n, 0);
    metrics_.remote_peval_runs.assign(n, 0);
    metrics_.remote_inceval_runs.assign(n, 0);
    remote_mono_.assign(n, 0);
    if (opening == Opening::kLoad || opening == Opening::kRestore) {
      StartWorkers();
    }

    RemoteRound round;
    if (opening == Opening::kRestore) {
      GRAPE_RETURN_NOT_OK(RestoreFromSnapshot(&round));
    } else {
      if (opening == Opening::kIncStart) {
        // Deliberately no kTagWkQuery: a re-seed would reset the converged
        // stores this delta warm-starts from.
        ScopedTimer t(&metrics_.inceval_seconds);
        GRAPE_RETURN_NOT_OK(
            SendToWorkers(kTagWkIncStart, [&](FragmentId, Encoder& enc) {
              enc.WriteString(options_.remote_app);
              enc.WritePodVector(touched);
              enc.WriteBool(options_.incremental);
            }));
        GRAPE_RETURN_NOT_OK(AwaitPhase(kWkPhaseIncEval, 1, &round));
      } else {
        {
          // A warm query re-seeds the resident fragment and acks exactly
          // like a load.
          ScopedTimer t(&metrics_.load_seconds);
          const bool cold = opening == Opening::kLoad;
          if (cold) GRAPE_RETURN_NOT_OK(EnsureDeposited());
          GRAPE_RETURN_NOT_OK(SendToWorkers(
              cold ? kTagWkLoad : kTagWkQuery, [&](FragmentId, Encoder& enc) {
                enc.WriteString(options_.remote_app);
                if (cold) enc.WriteU8(WorkerFlags());
                EncodeValue(enc, query);
                if (cold) enc.WriteU64(resident_token_);
              }));
          RemoteRound load;
          GRAPE_RETURN_NOT_OK(AwaitPhase(kWkPhaseLoad, 0, &load));
        }
        ScopedTimer t(&metrics_.peval_seconds);
        GRAPE_RETURN_NOT_OK(SendToWorkers(kTagWkRunPEval));
        GRAPE_RETURN_NOT_OK(AwaitPhase(kWkPhasePEval, 1, &round));
      }
      metrics_.supersteps = 1;
      GRAPE_RETURN_NOT_OK(CompleteRemoteRound(round, 0.0));
    }

    while (metrics_.supersteps < options_.max_supersteps) {
      const double global = round.GlobalSum();
      metrics_.rounds.back().global = global;
      if (AppShouldTerminate<App>(query, metrics_.supersteps, global)) break;

      uint64_t routed = 0;
      std::vector<uint32_t> apply_counts;
      {
        ScopedTimer t(&metrics_.coordinator_seconds);
        GRAPE_ASSIGN_OR_RETURN(
            routed, RouteInbox(std::exchange(remote_inbox_, {}), kTagWkApply,
                               &apply_counts));
      }
      if (routed + round.direct_updates == 0 && round.dirty == 0) {
        break;  // simultaneous fixpoint
      }

      WallTimer round_timer;
      RemoteRound next;
      {
        ScopedTimer t(&metrics_.inceval_seconds);
        const uint32_t step = metrics_.supersteps + 1;
        GRAPE_RETURN_NOT_OK(
            SendToWorkers(kTagWkRunIncEval, [&](FragmentId i, Encoder& enc) {
              IncEvalCommand cmd;
              cmd.round = step;
              cmd.incremental = options_.incremental;
              cmd.apply_frames = apply_counts[i];
              cmd.expect_direct = round.DirectInto(i);
              cmd.EncodeTo(enc);
            }));
        GRAPE_RETURN_NOT_OK(AwaitPhase(kWkPhaseIncEval, step, &next));
      }
      round = std::move(next);
      metrics_.supersteps++;
      GRAPE_RETURN_NOT_OK(
          CompleteRemoteRound(round, round_timer.ElapsedSeconds()));
    }
    if (!round.mono_by_frag.empty()) remote_mono_ = round.mono_by_frag;

    // Termination: remote GetPartial everywhere, Assemble here.
    Output output;
    {
      ScopedTimer t(&metrics_.assemble_seconds);
      GRAPE_RETURN_NOT_OK(SendToWorkers(kTagWkGetPartial));
      std::vector<Partial> partials(n);
      GRAPE_RETURN_NOT_OK(AwaitWorkers(
          world_, n_frags_, n, options_.remote_timeout_ms, "partials",
          [&](FragmentId frag, bool replied, RtMessage& msg) -> Result<bool> {
            if (msg.tag != kTagWkPartial || replied) return false;
            Decoder dec(msg.payload);
            GRAPE_RETURN_NOT_OK(DecodeValue(dec, &partials[frag]));
            return true;
          }));
      output = App::Assemble(query, std::move(partials));
    }
    FinishMetrics(total_timer);
    return output;
  }

  /// Readies the worker hosts for a cold load or a restore: makes sure
  /// the app is registered, drains stale worker frames addressed to the
  /// coordinator, and joins the world's in-thread hosts on backends
  /// without endpoint processes.
  void StartWorkers()
    requires RemoteCompatibleApp<App>
  {
    // Cover the in-thread host path even when nobody pre-registered this
    // app; endpoint processes snapshot the registry at fork, so for
    // tcp the registration must already have happened there.
    if (!WorkerAppRegistry::Global().Has(options_.remote_app)) {
      RegisterRemoteWorker<App>(options_.remote_app);
    }
    // An abandoned query may have left worker-protocol replies behind:
    // drain them so they cannot masquerade as this run's traffic. The
    // workers' own mailboxes belong to hosts that may be serving other
    // live slots; a freshly spawned in-thread set drains those itself.
    DrainWorkerFrames(world_, kCoordinatorRank, kCoordinatorRank);
    hosts_ = InThreadWorkers::Share(world_, n_frags_);
    session_live_ = true;
  }

  /// Flag bits shared by the kTagWkLoad and kTagWkRestore frames.
  uint8_t WorkerFlags() const {
    return options_.check_monotonicity ? kWkLoadCheckMonotonicity : 0;
  }

  /// Sends one control frame to every worker, encoding worker i's payload
  /// with `encode(i, enc)`.
  template <typename EncodeFn>
  Status SendToWorkers(uint32_t tag, EncodeFn&& encode) {
    for (FragmentId i = 0; i < n_frags_; ++i) {
      Encoder enc(world_->buffer_pool().Acquire());
      encode(i, enc);
      GRAPE_RETURN_NOT_OK(world_->Send(kCoordinatorRank, RankOf(i), tag,
                                       enc.TakeBuffer()));
    }
    return Status::OK();
  }

  Status SendToWorkers(uint32_t tag) {
    return SendToWorkers(tag, [](FragmentId, Encoder&) {});
  }

  /// Folds a completed remote superstep into the run: ack-reported flush
  /// traffic, the round's metrics, a checkpoint when one is due (no-op
  /// with the policy off), then the on_superstep hook.
  Status CompleteRemoteRound(const RemoteRound& round, double seconds) {
    extra_messages_ += round.sent_messages;
    extra_bytes_ += round.sent_bytes;
    RecordRound(seconds, round.updated_count);
    if (options_.verbose) {
      GRAPE_LOG(kInfo) << "superstep " << metrics_.supersteps << ": "
                       << metrics_.rounds.back().messages
                       << " msgs (remote)";
    }
    GRAPE_RETURN_NOT_OK(MaybeTakeCheckpoint(round));
    if (options_.on_superstep) options_.on_superstep(metrics_.supersteps);
    return Status::OK();
  }

  /// Ships the encoded batch to every endpoint and collects the rebuilt
  /// shapes. The mutate ack (kTagWkMutateAck, a WkBuildAck) only arrives
  /// after the worker finished its peer-to-peer mirror/warm-value
  /// exchange, so a complete ack set means every routing plan is resolved
  /// and every outer copy holds its owner's converged value.
  Result<std::vector<WkBuildAck>> ApplyMutationsImpl(const MutationBatch& b) {
    GRAPE_RETURN_NOT_OK(EnsureDeposited());
    GRAPE_RETURN_NOT_OK(
        SendToWorkers(kTagWkMutate, [&](FragmentId, Encoder& enc) {
          enc.WriteU64(resident_token_);
          b.EncodeTo(enc);
        }));
    std::vector<WkBuildAck> shapes(n_frags_);
    GRAPE_RETURN_NOT_OK(AwaitWorkers(
        world_, n_frags_, n_frags_, options_.remote_timeout_ms,
        "mutation acks",
        [&](FragmentId frag, bool replied, RtMessage& msg) -> Result<bool> {
          if (msg.tag != kTagWkMutateAck || replied) return false;
          Decoder dec(msg.payload);
          GRAPE_RETURN_NOT_OK(WkBuildAck::DecodeFrom(dec, &shapes[frag]));
          return true;
        }));
    RefreshShapes(shapes);
    return shapes;
  }

  /// Checkpoint barrier, entered right after a round's acks (and therefore
  /// its whole message frontier) are in. Each worker is told how many
  /// direct frames it should already hold buffered (this round's
  /// direct_matrix column); it snapshots state + buffered frames WITHOUT
  /// consuming them and acks with the image (inline in memory mode, via
  /// its local CheckpointStore in disk mode). Inline images are validated
  /// by a full decode BEFORE being committed to the store: a corrupt image
  /// must never become the recovery point. Once every ack is in, the
  /// coordinator rolls its own loop state into snapshot_.
  Status MaybeTakeCheckpoint(const RemoteRound& round) {
    const CheckpointPolicy& cp = options_.checkpoint;
    if (!cp.enabled() || metrics_.supersteps % cp.every_k != 0) {
      return Status::OK();
    }
    ScopedTimer timer(&metrics_.checkpoint_seconds);
    const uint32_t barrier = metrics_.supersteps;
    GRAPE_RETURN_NOT_OK(
        SendToWorkers(kTagWkCheckpoint, [&](FragmentId i, Encoder& enc) {
          WkCheckpointCommand cmd;
          cmd.round = barrier;
          cmd.dir = cp.dir;
          cmd.expect_direct = round.DirectInto(i);
          cmd.EncodeTo(enc);
        }));
    GRAPE_RETURN_NOT_OK(AwaitWorkers(
        world_, n_frags_, n_frags_, options_.remote_timeout_ms,
        "checkpoint acks",
        [&](FragmentId, bool replied, RtMessage& msg) -> Result<bool> {
          if (msg.tag != kTagWkCheckpointAck || replied) return false;
          Decoder dec(msg.payload);
          WkCheckpointAck ack;
          GRAPE_RETURN_NOT_OK(WkCheckpointAck::DecodeFrom(dec, &ack));
          if (ack.round != barrier) return false;  // stale duplicate
          metrics_.checkpoint_bytes += ack.bytes;
          if (!ack.image.empty()) {
            GRAPE_RETURN_NOT_OK(
                DecodeCheckpointImage(ack.image.data(), ack.image.size())
                    .status());
            GRAPE_RETURN_NOT_OK(
                ckpt_store_.Put(msg.from, barrier, std::move(ack.image)));
          }
          return true;
        }));
    metrics_.checkpoints++;

    snapshot_.valid = false;  // not valid while half-written
    snapshot_.supersteps = barrier;
    snapshot_.round = round;
    snapshot_.inbox.clear();
    snapshot_.inbox.reserve(remote_inbox_.size());
    for (const RtMessage& m : remote_inbox_) {
      snapshot_.inbox.emplace_back(m.from, m.payload);  // deep copy
    }
    snapshot_.metrics = metrics_;
    snapshot_.extra_messages = extra_messages_;
    snapshot_.extra_bytes = extra_bytes_;
    snapshot_.recorded_messages = recorded_messages_;
    snapshot_.recorded_bytes = recorded_bytes_;
    const CommStats cs = world_->stats();
    snapshot_.comm_messages = base_messages_ + cs.messages;
    snapshot_.comm_bytes = base_bytes_ + cs.bytes;
    snapshot_.remote_mono = remote_mono_;
    snapshot_.valid = true;
    return Status::OK();
  }

  /// Re-seeds a rebuilt world from snapshot_ + ckpt_store_: ships each
  /// worker its image (inline in memory mode; by directory in disk mode),
  /// awaits the restore acks — which report the NEW endpoint pids — then
  /// rolls the coordinator's counters, metrics, and routed inbox back to
  /// the barrier. The loop resumes exactly as the fault-free run would
  /// have continued from that superstep.
  Status RestoreFromSnapshot(RemoteRound* round) {
    const CheckpointPolicy& cp = options_.checkpoint;
    // Name the barrier explicitly: a crash during a later checkpoint can
    // leave newer images committed for SOME ranks, and those must not be
    // restored over the last complete cut.
    const uint32_t barrier = snapshot_.supersteps;
    double restore_seconds = 0;
    {
      ScopedTimer t(&restore_seconds);
      std::vector<std::vector<uint8_t>> images(n_frags_);
      if (cp.dir.empty()) {
        for (FragmentId i = 0; i < n_frags_; ++i) {
          GRAPE_ASSIGN_OR_RETURN(images[i],
                                 ckpt_store_.GetEncoded(RankOf(i), barrier));
        }
      }
      GRAPE_RETURN_NOT_OK(
          SendToWorkers(kTagWkRestore, [&](FragmentId i, Encoder& enc) {
            WkRestoreCommand cmd;
            cmd.app_name = options_.remote_app;
            cmd.flags = WorkerFlags();
            cmd.round = barrier;
            cmd.dir = cp.dir;
            cmd.image = std::move(images[i]);
            cmd.EncodeTo(enc);
          }));
      RemoteRound acks;
      GRAPE_RETURN_NOT_OK(AwaitPhase(kWkPhaseRestore, barrier, &acks));
    }
    // The restore acks deposited the fresh worker pids into this attempt's
    // cold metrics_; carry them over the snapshot's metrics, which are
    // authoritative for everything else.
    std::vector<uint64_t> pids = std::move(metrics_.remote_worker_pids);
    metrics_ = snapshot_.metrics;
    metrics_.remote_worker_pids = std::move(pids);
    metrics_.load_seconds += restore_seconds;
    extra_messages_ = snapshot_.extra_messages;
    extra_bytes_ = snapshot_.extra_bytes;
    recorded_messages_ = snapshot_.recorded_messages;
    recorded_bytes_ = snapshot_.recorded_bytes;
    // The rebuilt transport's counters restart at zero; the bases splice
    // the old world's totals back in so RecordRound deltas stay exact.
    world_->ResetStats();
    base_messages_ = snapshot_.comm_messages;
    base_bytes_ = snapshot_.comm_bytes;
    remote_mono_ = snapshot_.remote_mono;
    remote_inbox_.clear();
    for (const auto& [from, payload] : snapshot_.inbox) {
      std::vector<uint8_t> copy = world_->buffer_pool().Acquire();
      copy.assign(payload.begin(), payload.end());
      remote_inbox_.push_back(
          RtMessage{from, kCoordinatorRank, kTagWkData, std::move(copy)});
    }
    *round = snapshot_.round;
    return Status::OK();
  }

  /// Collects every worker's ack for `phase` (round-tagged for IncEval)
  /// into `out`. kTagWkData frames are buffered into remote_inbox_ — FIFO
  /// per channel guarantees a worker's data precedes its ack, so a
  /// complete ack set means a complete round inbox.
  Status AwaitPhase(uint8_t phase, uint32_t round, RemoteRound* out) {
    const FragmentId n = n_frags_;
    out->global_by_frag.assign(n, 0.0);
    out->mono_by_frag.assign(n, 0);
    out->direct_matrix.assign(n, std::vector<uint32_t>(n, 0));
    return AwaitWorkers(
        world_, n, n, options_.remote_timeout_ms, "phase acks",
        [&](FragmentId frag, bool replied, RtMessage& msg) -> Result<bool> {
          if (msg.tag == kTagWkData) {
            remote_inbox_.push_back(std::move(msg));
            return false;
          }
          if (msg.tag != kTagWkAck) return false;
          Decoder dec(msg.payload);
          WorkerAck ack;
          GRAPE_RETURN_NOT_OK(WorkerAck::DecodeFrom(dec, &ack));
          if (ack.phase != phase || ack.round != round || replied) {
            return false;  // stale or duplicated (flaky substrate)
          }
          out->dirty += ack.dirty;
          out->direct_updates += ack.direct_updates;
          out->updated_count += ack.updated_count;
          out->sent_messages += ack.sent_messages;
          out->sent_bytes += ack.sent_bytes;
          out->global_by_frag[frag] = ack.global;
          out->mono_by_frag[frag] = ack.mono_violations;
          for (const auto& [dst_rank, frames] : ack.direct_frames) {
            if (dst_rank < 1 || dst_rank > n) {
              return Status::Internal(
                  "worker reported direct frames to rank " +
                  std::to_string(dst_rank));
            }
            out->direct_matrix[frag][dst_rank - 1] += frames;
          }
          metrics_.remote_worker_pids[frag] = ack.worker_pid;
          if (ack.phase == kWkPhasePEval) {
            metrics_.remote_peval_runs[frag]++;
          } else if (ack.phase == kWkPhaseIncEval) {
            metrics_.remote_inceval_runs[frag]++;
          }
          return true;
        });
  }

  /// The coordinator-loaded graph, or nullptr for an engine built from a
  /// DistributedGraphMeta (which holds only shapes and the token).
  const FragmentedGraph* fg_;
  FragmentId n_frags_;
  VertexId total_vertices_;
  /// Token the workers attach by: the meta's, or fg_'s deposit (0: none).
  uint64_t resident_token_ = 0;
  EngineOptions options_;
  std::unique_ptr<Transport> owned_world_;  // only when no external substrate
  Transport* world_;                        // the substrate actually used
  // Local compute only (empty on remote engines): the pool, one worker
  // per fragment, and the workers' phase results and staged sends.
  std::optional<ThreadPool> pool_;
  std::vector<WorkerCore<App>> cores_;
  std::vector<Status> phase_status_;
  std::vector<std::vector<WorkerSend>> pending_sends_;
  EngineMetrics metrics_;

  // Coordinator: per-destination aggregation with round-tagged slots.
  struct CoordBatch {
    std::vector<uint32_t> lids;    // first-seen order, the merge order
    std::vector<Value> values;     // parallel to lids
    std::vector<uint32_t> slot_round;  // by dst_lid: last round seen
    std::vector<uint32_t> slot_pos;    // by dst_lid: index into lids/values
    uint32_t round = 0;
  };
  std::vector<CoordBatch> coord_batches_;
  std::vector<FragmentId> coord_touched_;
  std::vector<uint32_t> route_lids_;   // coordinator decode scratch
  std::vector<Value> route_values_;
  uint32_t coord_round_ = 0;

  // Remote compute: buffered worker->coordinator data frames of the
  // current round, ack-reported flush traffic (folded into CommStats
  // views), and the last per-worker monotonicity totals.
  std::vector<RtMessage> remote_inbox_;
  uint64_t extra_messages_ = 0;
  uint64_t extra_bytes_ = 0;
  std::vector<uint64_t> remote_mono_;

  // Per-round communication totals already attributed to a RoundMetrics.
  uint64_t recorded_messages_ = 0;
  uint64_t recorded_bytes_ = 0;

  // From StartWorkers until EndSession: this engine's hold on the world's
  // shared in-thread hosts (inproc backends; endpoint backends keep their
  // hosts in the endpoint processes), and whether its app slot may be
  // loaded in them.
  std::shared_ptr<InThreadWorkers> hosts_;
  bool session_live_ = false;

  // Fault tolerance (CheckpointPolicy): worker image store, the
  // coordinator snapshot the retry loop resumes from, and counter bases
  // restoring CommStats continuity after a world rebuild. All inert — and
  // the counters zero — while the policy is off.
  CheckpointStore ckpt_store_;
  CoordSnapshot snapshot_;
  uint32_t run_recoveries_ = 0;
  uint64_t base_messages_ = 0;
  uint64_t base_bytes_ = 0;
};

}  // namespace grape

#endif  // GRAPE_CORE_ENGINE_H_
