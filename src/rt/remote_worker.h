#ifndef GRAPE_RT_REMOTE_WORKER_H_
#define GRAPE_RT_REMOTE_WORKER_H_

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/worker_core.h"
#include "graph/mutation.h"
#include "partition/fragment.h"
#include "rt/transport.h"
#include "rt/worker_protocol.h"
#include "util/result.h"
#include "util/status.h"

namespace grape {

/// What one worker phase (PEval or IncEval) produced: the staged outgoing
/// buffers plus every counter the engine's metrics and termination logic
/// need (see WorkerAck in rt/worker_protocol.h).
struct WorkerPhaseOutput {
  std::vector<WorkerSend> sends;
  uint64_t dirty = 0;
  uint64_t direct_updates = 0;
  uint64_t updated_count = 0;
  uint64_t mono_violations = 0;
  double global = 0.0;
};

/// Process-wide store of resident fragments, keyed by (token, worker
/// rank): what a distributed build assembled or a coordinator deposit
/// shipped (rt/distributed_load.h). Every kTagWkLoad attaches to an entry
/// by token, so a fragment crosses the world at most once. Entries are
/// shared_ptrs: a seated host keeps its fragment alive until a release
/// (kTagWkRelease) or a load of another token drops it.
class ResidentFragmentStore {
 public:
  static ResidentFragmentStore& Global();

  void Put(uint64_t token, uint32_t rank,
           std::shared_ptr<const Fragment> fragment);
  std::shared_ptr<const Fragment> Get(uint64_t token, uint32_t rank) const;
  /// Drops every rank's entry for one build (frees the graph once no
  /// loaded worker references it).
  void Erase(uint64_t token);

 private:
  mutable std::mutex mu_;
  std::map<std::pair<uint64_t, uint32_t>, std::shared_ptr<const Fragment>>
      fragments_;
};

/// Type-erased worker for one app slot of an endpoint — the virtual seam
/// between the generic protocol host below and the templated
/// WorkerCore<App> compute. A server holds only its query and its core:
/// the fragment belongs to the host (RemoteWorkerHost), which seats every
/// slot's core on its one resident fragment. Instantiated by name through
/// WorkerAppRegistry, so an endpoint process can host any registered PIE
/// program without compile-time knowledge of the app.
class WorkerAppServerBase {
 public:
  virtual ~WorkerAppServerBase() = default;

  /// Decodes the next query (from kTagWkLoad, kTagWkQuery or a checkpoint
  /// image). Seat must follow before any phase runs.
  virtual Status DecodeQuery(Decoder& dec) = 0;
  /// Rebuilds the core over `frag` around a fresh app instance and a cold
  /// parameter store, so stateful apps drop every trace of the previous
  /// query. `frag` is host-owned and outlives the seat.
  virtual void Seat(const Fragment& frag, bool check_monotonicity) = 0;
  virtual Status PEval(BufferPool& pool, WorkerPhaseOutput* out) = 0;
  virtual void BeginApply() = 0;
  virtual Status ApplyFrame(const std::vector<uint8_t>& payload) = 0;
  virtual Status IncEval(bool incremental, BufferPool& pool,
                         WorkerPhaseOutput* out) = 0;
  virtual Status EncodePartial(Encoder& enc) const = 0;

  /// Serializes everything a respawned worker needs to resume this one's
  /// run mid-stream: query + fragment + WorkerCore state (+ app state for
  /// CheckpointableApp programs). Only called at a superstep barrier. The
  /// fragment ships whole even when it came from the resident store: a
  /// post-recovery world's endpoint processes are fresh forks that never
  /// saw the load, so the image must be self-sufficient.
  virtual void EncodeCheckpoint(Encoder& enc) const = 0;
  /// The WorkerCore part of an image, after DecodeQuery and a Seat on the
  /// image's fragment. All-or-nothing: a failure leaves the caller free to
  /// discard this instance.
  virtual Status RestoreCore(Decoder& dec) = 0;

  // Streaming mutations (kTagWkMutate .. kTagWkMutVals): the host rebuilds
  // its fragment once and re-seats every slot on the rebuilt copy. Inner
  // lids are stable under edge mutation (the inner set is fixed by vertex
  // ownership, and the inner order — ascending gid among owned vertices —
  // is a function of ownership alone), so inner values migrate by lid; the
  // rebuilt outer set starts cold and is overwritten with the owners'
  // converged values through the kTagWkMutMirror / kTagWkMutVals exchange.

  /// Re-seats the core on `rebuilt`, carrying the converged inner values
  /// over by lid.
  virtual void Reseat(const Fragment& rebuilt, bool check_monotonicity) = 0;
  /// Answers a peer's warm-value request: the converged value of each
  /// inner vertex `here[k]`, addressed under the REQUESTER's local id
  /// `requester_lids[k]` (record-block wire format, the same codec
  /// parameter messages use).
  virtual void EncodeWarmValues(const std::vector<uint32_t>& requester_lids,
                                const std::vector<LocalId>& here,
                                Encoder& enc) const = 0;
  /// Absorbs an owner's warm values: OVERWRITES the addressed store slots
  /// (no aggregation — at a converged fixpoint an outer copy can be
  /// stale-high, and the owner's value is authoritative).
  virtual Status AbsorbWarmValues(Decoder& dec) = 0;
  /// Re-baselines monotonicity tracking on the warm values once the
  /// exchange completed: they, not InitValue, are the floor the
  /// incremental rounds descend from.
  virtual void SyncMonotonicityBaseline() = 0;
  /// Seeds the warm IncEval's initial M_i with the local ids (inner AND
  /// outer copies) of the batch's touched vertices.
  virtual void SeedTouched(const std::vector<LocalId>& lids) = 0;
};

/// Templated worker server: WorkerCore<App> behind the virtual seam.
template <PIEProgram App>
  requires RemoteCompatibleApp<App>
class WorkerServer final : public WorkerAppServerBase {
 public:
  using Query = typename App::QueryType;
  using Value = typename App::ValueType;

  Status DecodeQuery(Decoder& dec) override {
    return DecodeValue(dec, &query_);
  }

  void Seat(const Fragment& frag, bool check_monotonicity) override {
    core_.emplace(frag, App{});
    core_->Reset(check_monotonicity);
  }

  Status PEval(BufferPool& pool, WorkerPhaseOutput* out) override {
    core_->PEval(query_);
    return FlushInto(pool, out);
  }

  void BeginApply() override { core_->BeginApply(); }

  Status ApplyFrame(const std::vector<uint8_t>& payload) override {
    return core_->ApplyBatch(payload);
  }

  Status IncEval(bool incremental, BufferPool& pool,
                 WorkerPhaseOutput* out) override {
    core_->FinishApply();
    core_->IncEval(query_, incremental);
    return FlushInto(pool, out);
  }

  Status EncodePartial(Encoder& enc) const override {
    EncodeValue(enc, core_->GetPartial(query_));
    return Status::OK();
  }

  void EncodeCheckpoint(Encoder& enc) const override {
    EncodeValue(enc, query_);
    core_->fragment().EncodeTo(enc);
    core_->EncodeCheckpoint(enc);
  }

  Status RestoreCore(Decoder& dec) override {
    return core_->RestoreCheckpoint(dec);
  }

  void Reseat(const Fragment& rebuilt, bool check_monotonicity) override {
    const LocalId num_inner = rebuilt.num_inner();
    std::vector<Value> warm;
    warm.reserve(num_inner);
    for (LocalId i = 0; i < num_inner; ++i) {
      warm.push_back(std::move(core_->store().UntrackedRef(i)));
    }
    Seat(rebuilt, check_monotonicity);
    ParamStore<Value>& store = core_->store();
    for (LocalId i = 0; i < num_inner; ++i) {
      store.UntrackedRef(i) = std::move(warm[i]);
    }
  }

  void EncodeWarmValues(const std::vector<uint32_t>& requester_lids,
                        const std::vector<LocalId>& here,
                        Encoder& enc) const override {
    const ParamStore<Value>& store = core_->store();
    std::vector<Value> values;
    values.reserve(here.size());
    for (LocalId lid : here) values.push_back(store.Get(lid));
    EncodeOwnedRecords(enc, requester_lids, values);
  }

  Status AbsorbWarmValues(Decoder& dec) override {
    std::vector<uint32_t> lids;
    std::vector<Value> values;
    GRAPE_RETURN_NOT_OK(DecodeRecordBlock(dec, &lids, &values));
    ParamStore<Value>& store = core_->store();
    for (size_t k = 0; k < lids.size(); ++k) {
      if (lids[k] >= static_cast<uint32_t>(store.size())) {
        return Status::Corruption(
            "warm value addresses lid " + std::to_string(lids[k]) +
            " outside the rebuilt fragment");
      }
      store.UntrackedRef(lids[k]) = std::move(values[k]);
    }
    return Status::OK();
  }

  void SyncMonotonicityBaseline() override {
    core_->SyncMonotonicityBaseline();
  }

  void SeedTouched(const std::vector<LocalId>& lids) override {
    core_->SeedUpdated(lids);
  }

 private:
  Status FlushInto(BufferPool& pool, WorkerPhaseOutput* out) {
    // updated_count is read after IncEval so the ablation's expansion of
    // M_i is visible, exactly like the engine's local RecordRound.
    out->updated_count = core_->updated().size();
    core_->Flush(pool, &out->sends);
    out->dirty = core_->flush_dirty();
    out->mono_violations = core_->monotonicity_violations();
    out->global = core_->GlobalValue();
    for (const WorkerSend& s : out->sends) {
      out->direct_updates += s.direct_updates;
    }
    return Status::OK();
  }

  Query query_{};
  std::optional<WorkerCore<App>> core_;
};

/// Process-wide registry of remotely instantiable PIE programs: the
/// "plug" panel an endpoint process consults when a kTagWkLoad frame
/// names an app. Populated by RegisterBuiltinWorkerApps()
/// (apps/register_apps.h) and by the engine for its own app type.
/// IMPORTANT: multi-process backends fork their endpoints at transport
/// Create time, and a fork snapshots this registry — register before
/// building the transport in any process that should host remote workers.
class WorkerAppRegistry {
 public:
  using Factory = std::function<std::unique_ptr<WorkerAppServerBase>()>;

  static WorkerAppRegistry& Global();

  void Register(const std::string& name, Factory factory);
  bool Has(const std::string& name) const;
  Result<Factory> Get(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

/// Registers App under `name` (idempotent overwrite).
template <typename App>
  requires RemoteCompatibleApp<App>
void RegisterRemoteWorker(const std::string& name) {
  WorkerAppRegistry::Global().Register(
      name, [] { return std::make_unique<WorkerServer<App>>(); });
}

/// The generic worker-protocol state machine for one rank: feed it every
/// worker-tagged frame addressed to the rank, it emits reply frames
/// through `emit`. Deliberately non-blocking — a frame either completes a
/// step or is buffered against the explicit per-sender delivery
/// expectations of the next kTagWkRunIncEval — so the same host runs
/// single-threaded inside a tcp endpoint's poll loop or an in-process
/// worker thread.
///
/// The host is seated on one resident fragment and keeps one warm server
/// per app slot over it, keyed by the app name the kTagWkLoad frame
/// carries. Only the frames that open or retire a slot's query name it
/// (kTagWkLoad, kTagWkQuery, kTagWkIncStart, kTagWkRestore,
/// kTagWkShutdown); every per-superstep frame goes to the slot the
/// current query opened. A load that attaches a different token retires
/// every other slot (they were seated on the old fragment); kTagWkMutate
/// patches the fragment once and re-seats every live slot.
///
/// Protocol violations (unknown app, corrupt frame, command out of order
/// — e.g. a duplicated control frame injected by a flaky substrate) are
/// answered with kTagWkError and do not kill the host; only emit failures
/// (the world is gone) return non-OK.
class RemoteWorkerHost {
 public:
  /// Ships one outbound frame (from = this rank). Must not reenter the
  /// host except through frame delivery (see endpoint relay loops).
  using Emit = std::function<Status(uint32_t to, uint32_t tag,
                                    std::vector<uint8_t> payload)>;

  /// `pool` recycles encode buffers; pass the transport's pool when the
  /// host shares a process with it, nullptr for an owned pool.
  RemoteWorkerHost(uint32_t rank, Emit emit, BufferPool* pool = nullptr);

  RemoteWorkerHost(const RemoteWorkerHost&) = delete;
  RemoteWorkerHost& operator=(const RemoteWorkerHost&) = delete;

  /// Handles one worker-protocol frame. Returns non-OK only when the
  /// host cannot continue (emit failed); the endpoint should then tear
  /// down, mirroring any other dead-peer situation.
  Status OnFrame(uint32_t from, uint32_t tag, std::vector<uint8_t> payload);

 private:
  /// One warm app server over the resident fragment.
  struct Slot {
    std::unique_ptr<WorkerAppServerBase> server;
    bool check_monotonicity = false;
    /// kTagWkMutVals blocks absorbed during the mutation in flight.
    uint32_t warm_frames = 0;
  };

  Status HandleLoad(const std::vector<uint8_t>& payload);
  /// kTagWkDeposit: keep a shipped fragment in the store under its token.
  Status HandleDeposit(const std::vector<uint8_t>& payload);
  /// kTagWkRelease: forget a token, and the fragment if seated on it.
  void HandleRelease(const std::vector<uint8_t>& payload);
  /// kTagWkQuery: re-seed one loaded slot for its session's next query.
  Status HandleQuery(const std::vector<uint8_t>& payload);
  void HandleShutdown(const std::vector<uint8_t>& payload);
  Status MaybeRunIncEval();
  Status RunPhase(uint8_t phase, uint32_t round, bool incremental);
  // Fault tolerance (rt/checkpoint.h).
  Status HandleCheckpointCmd(const std::vector<uint8_t>& payload);
  /// Snapshots once this barrier's direct-frame expectations are all
  /// buffered — without consuming them, so the image captures the exact
  /// message frontier and execution continues unchanged afterwards.
  Status MaybeCheckpoint();
  Status HandleRestore(const std::vector<uint8_t>& payload);
  /// Keeps `frag` under `token` (unless 0) and acks its shape with `tag`.
  Status KeepAndAck(uint32_t tag, uint64_t token,
                    std::shared_ptr<const Fragment> frag);
  /// Reports a worker-side failure to the engine (code + message).
  Status EmitError(const Status& error);
  Status EmitAck(const WorkerAck& ack);
  /// Acks a load, query re-seed or restore.
  Status EmitOpenAck(uint8_t phase, uint32_t round);

  /// The slot named `app`, or nullptr.
  Slot* FindSlot(const std::string& app);
  /// Forgets the current query: its slot selection and its buffered round
  /// state, which can only belong to an abandoned round now.
  void ClearRound();
  /// Seats the host on `fragment` (nullptr: on none). A different
  /// fragment retires every slot, since each was seated on the old one.
  void AdoptFragment(std::shared_ptr<const Fragment> fragment, uint64_t token);
  /// Adopts the fragment a distributed build or a deposit left under
  /// `token` at this rank (no-op when already seated on it).
  Status AttachResident(uint64_t token);

  // Distributed build steps (kTagWkShard .. kTagWkBuildAck).
  Status HandleShard(const std::vector<uint8_t>& payload);
  Status HandleBuildCmd(const std::vector<uint8_t>& payload);
  Status HandleExchange(const std::vector<uint8_t>& payload);
  Status HandleMirror(uint32_t from, std::vector<uint8_t> payload);
  /// Assembles the fragment once the build command arrived and every
  /// peer's final exchange chunk is in; sends mirror answers.
  Status MaybeAssemble();
  Status ApplyMirrorFrame(uint32_t from, const std::vector<uint8_t>& payload);
  /// Deposits the fragment and acks once every peer answered.
  Status MaybeFinishBuild();

  // Streaming mutation steps (kTagWkMutate .. kTagWkMutateAck): rebuild
  // the fragment in place once, re-seat every slot, then the peer-to-peer
  // mirror-placement + per-slot warm-value exchange.
  Status HandleMutate(const std::vector<uint8_t>& payload);
  Status HandleMutMirror(uint32_t from, std::vector<uint8_t> payload);
  Status HandleMutVals(uint32_t from, std::vector<uint8_t> payload);
  /// Applies one peer's rebuilt mirror placements and answers it with
  /// every slot's warm values for the outer copies it declared.
  Status ApplyMutMirrorFrame(uint32_t from,
                             const std::vector<uint8_t>& payload);
  Status ApplyMutValsFrame(const std::vector<uint8_t>& payload);
  /// Freezes the rebuilt fragment and acks the new shape once every
  /// peer's placements were applied AND every owner's values absorbed.
  Status MaybeFinishMutate();
  /// Drops an unfinished mutation. Slots already re-seated on its rebuilt
  /// fragment are retired with it.
  void AbandonMutation();
  Status FailMutation(const Status& error);
  /// kTagWkIncStart: seed M_i with the touched gids and run the warm
  /// IncEval round 1 (no query frame — the store keeps its warm state),
  /// incremental or as the ablation, as the frame's flag says.
  Status HandleIncStart(const std::vector<uint8_t>& payload);

  uint32_t rank_;
  Emit emit_;
  BufferPool owned_pool_;
  BufferPool* pool_;

  /// The resident fragment every slot is seated on, and its
  /// ResidentFragmentStore token (0 for a checkpoint restore's private
  /// copy) — MaybeFinishMutate re-deposits under it, so every later attach
  /// on this world sees the mutated graph without a new epoch.
  std::shared_ptr<const Fragment> fragment_;
  uint64_t token_ = 0;
  std::map<std::string, Slot> slots_;
  /// The slot the current query opened: every per-superstep frame goes
  /// here. nullptr between a retirement and the next opening frame.
  Slot* current_ = nullptr;

  struct PendingFrame {
    uint32_t from;
    uint32_t tag;
    std::vector<uint8_t> payload;
  };
  std::vector<PendingFrame> pending_;  // arrival order preserved
  bool inc_pending_ = false;
  IncEvalCommand cmd_;
  bool ckpt_pending_ = false;
  WkCheckpointCommand ckpt_cmd_;

  /// One in-flight distributed build. Independent of the compute state
  /// above: a world can build the next graph while a loaded worker idles.
  struct BuildSession {
    uint64_t token = 0;
    WkShardCommand cmd;
    /// Own shard, staged until the build command routes it. Kept apart
    /// from `edges`: exchange chunks from fast peers can land before our
    /// own build command, and must never be re-routed as shard input.
    std::vector<ShardEdge> shard_edges;
    /// Exchange chunks and self-owned edges accumulate here until
    /// assembly.
    std::vector<ShardEdge> edges;
    uint64_t shard_edge_count = 0;
    VertexId total_vertices = 0;
    bool exchanging = false;   // build command processed, shard routed
    uint32_t finals_seen = 0;  // peers whose last exchange chunk arrived
    bool assembled = false;
    uint32_t mirrors_seen = 0;  // peers whose mirror answers were applied
    std::shared_ptr<const std::vector<FragmentId>> owner;
    std::shared_ptr<const std::vector<LocalId>> owner_lid;
    std::shared_ptr<Fragment> fragment;
    /// Mirror frames from peers that assembled before we did.
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> early_mirrors;
  };
  std::optional<BuildSession> build_;

  /// One in-flight streaming mutation. Peers' kTagWkMutMirror /
  /// kTagWkMutVals frames travel on different channels than the
  /// coordinator's kTagWkMutate (FIFO is per channel), so they can arrive
  /// before our own rebuild — buffered here like BuildSession's
  /// early_mirrors. The engine serializes mutations (one batch in flight
  /// per world), so no token is needed to match frames to the session.
  struct MutSession {
    /// The rebuilt fragment, mutable (routing-plan patches from the
    /// peers' placements land in place) until MaybeFinishMutate freezes
    /// it into fragment_. Every slot is already seated on it. nullptr
    /// until our own kTagWkMutate arrives.
    std::shared_ptr<Fragment> fragment;
    uint32_t mirrors_seen = 0;
    uint32_t vals_seen = 0;
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> early_mirrors;
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> early_vals;
  };
  std::optional<MutSession> mut_;
};

/// Encodes/decodes the kTagWkError payload.
void EncodeWorkerError(Encoder& enc, const Status& error);
Status DecodeWorkerError(const std::vector<uint8_t>& payload);

/// Encodes/decodes the mirror placements of the distributed build
/// (kTagWkMirror, after its build token) and of a streaming mutation
/// (kTagWkMutMirror): varint count, count u32 gids, count u32 lids. A
/// count longer than the bytes left decodes to Corruption before anything
/// is allocated.
void EncodeMirrorAnswers(Encoder& enc,
                         const std::vector<MirrorLidEntry>& answers);
Status DecodeMirrorAnswers(Decoder& dec, std::vector<MirrorLidEntry>* answers);

/// The coordinator's await skeleton behind every remote wait, the
/// engine's and the distributed build's alike: blocks in Recv on rank 0
/// until `replies` of the `num_workers` workers have answered.
/// `on_frame(frag, replied, msg)` sees each frame from a worker rank —
/// `replied` tells whether that worker already answered this wait —
/// claims what it wants by moving it out, and returns true when the frame
/// is the worker's answer. The skeleton owns everything else. A
/// kTagWkError fails the wait with the first error, but only once every
/// outstanding worker has answered: an error from a worker that has not
/// answered yet is that worker's answer, so no rank's error trails the
/// wait into the next one. Unclaimed frames — stale acks or partials left
/// behind by duplicated control frames — go back to the pool. A Recv that
/// returns empty-handed ends the wait with Unavailable when the transport
/// died (a broken link, a closed or killed world) or `timeout_ms` passed
/// (a dropped control frame on a flaky-but-alive substrate); a worker's
/// error, if one came in, wins over either.
template <typename OnFrame>
Status AwaitWorkers(Transport* world, uint32_t num_workers, uint32_t replies,
                    int timeout_ms, const char* what, OnFrame&& on_frame) {
  std::vector<uint8_t> replied(num_workers, 0);
  Status error;  // the first kTagWkError
  const RecvDeadline deadline = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(timeout_ms);
  while (replies > 0) {
    Result<RtMessage> got = world->Recv(kCoordinatorRank, deadline);
    if (!got.ok()) {
      const bool died = !world->healthy();
      if (!died && std::chrono::steady_clock::now() < deadline) continue;
      if (!error.ok()) return error;
      return Status::Unavailable(
          died ? std::string("transport died while awaiting remote ") + what
               : std::string("timed out awaiting remote ") + what +
                     " after " + std::to_string(timeout_ms) + "ms");
    }
    RtMessage& msg = got.value();
    if (msg.from >= 1 && msg.from <= num_workers) {
      const uint32_t frag = msg.from - 1;
      bool answered = false;
      if (msg.tag == kTagWkError) {
        if (error.ok()) error = DecodeWorkerError(msg.payload);
        answered = replied[frag] == 0;
      } else {
        GRAPE_ASSIGN_OR_RETURN(answered, on_frame(frag, replied[frag] != 0,
                                                  msg));
      }
      if (answered) {
        replied[frag] = 1;
        --replies;
      }
    } else if (msg.tag == kTagWkError && error.ok()) {
      error = DecodeWorkerError(msg.payload);
    }
    world->buffer_pool().Release(std::move(msg.payload));
  }
  return error;
}

/// Drops every worker-protocol frame waiting in the mailboxes of ranks
/// [first, last]: leftovers of an abandoned query or build, which must not
/// masquerade as the next one's traffic.
void DrainWorkerFrames(Transport* world, uint32_t first, uint32_t last);

/// In-process worker threads for backends without endpoint processes
/// (inproc): rank r's worker is a thread of the engine process speaking
/// the exact same protocol over the transport. One set per world, shared
/// by every live session and build on it — exactly like an endpoint
/// process, whose host outlives any one session. The set lives while any
/// holder keeps its shared_ptr; the last release stops and joins it.
class InThreadWorkers {
 public:
  /// The world's shared set, spawned on first demand (after dropping
  /// stale worker frames from the mailboxes it will serve). nullptr on
  /// backends whose workers live in endpoint processes.
  static std::shared_ptr<InThreadWorkers> Share(Transport* world,
                                                uint32_t num_workers);
  ~InThreadWorkers();

  InThreadWorkers(const InThreadWorkers&) = delete;
  InThreadWorkers& operator=(const InThreadWorkers&) = delete;

 private:
  InThreadWorkers(Transport* world, uint32_t num_workers);
  void Loop(uint32_t rank);

  Transport* world_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace grape

#endif  // GRAPE_RT_REMOTE_WORKER_H_
