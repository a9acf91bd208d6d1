#ifndef GRAPE_CORE_WORKER_CORE_H_
#define GRAPE_CORE_WORKER_CORE_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/pie.h"
#include "rt/message.h"
#include "util/status.h"

namespace grape {

/// Apps that carry private cross-superstep state beyond the ParamStore
/// (e.g. PageRank's rank vector and residual) expose it to the checkpoint
/// path through these hooks. Stateless apps (SSSP, CC, BFS) need nothing —
/// their entire resumable state is the parameter store, which WorkerCore
/// checkpoints unconditionally.
template <typename App>
concept CheckpointableApp = requires(const App& capp, App& app, Encoder& enc,
                                     Decoder& dec) {
  { capp.EncodeState(enc) } -> std::same_as<void>;
  { app.DecodeState(dec) } -> std::same_as<Status>;
};

/// One buffer a worker wants shipped after a flush. dst_rank is a
/// transport rank: kCoordinatorRank for owner-bound updates (the payload
/// then starts with the destination fragment id, exactly what
/// CoordinatorRoute decodes), or the destination worker's rank for
/// owner-to-mirror refreshes (direct_updates > 0, payload is a bare
/// record block).
struct WorkerSend {
  uint32_t dst_rank = 0;
  uint64_t direct_updates = 0;  // 0 for coordinator-bound buffers
  std::vector<uint8_t> payload;
};

/// The per-fragment half of the GRAPE engine (Sec. 2.2): one worker P_i's
/// update-parameter store, its PEval/IncEval invocations, message
/// application, and the flush that turns changed parameters into staged
/// record blocks. The plug-in's PEval/IncEval run one call per fragment,
/// and each query stays sequential inside its fragment: GRAPE's
/// parallelism is across fragments. A fused multi-source wave is K
/// independent queries, so its app (MultiSourceApp) drains the K lanes of
/// one call concurrently. Extracted from GrapeEngine so the exact same
/// code runs in BOTH execution modes — inline in the rank-0 engine
/// process (local compute) and inside a remote worker host in the rank's
/// endpoint process (remote compute). Observable behaviour (payload bytes, send
/// order, merge order, update sets) must not depend on where it runs;
/// tests/message_path_golden_test.cc freezes that equivalence.
template <PIEProgram App>
class WorkerCore {
 public:
  using Query = typename App::QueryType;
  using Value = typename App::ValueType;
  using Agg = typename App::AggregatorType;
  using Partial = typename App::PartialType;

  WorkerCore(const Fragment& frag, App app)
      : frag_(&frag), app_(std::move(app)) {
    staging_.resize(frag.num_fragments());
  }

  /// (Re)initializes the store for a fresh run.
  void Reset(bool track_monotonicity) {
    store_.Init(frag_->num_local(), app_.InitValue());
    updated_.clear();
    track_mono_ = track_monotonicity;
    if (track_mono_) {
      prev_flushed_.assign(frag_->num_local(), app_.InitValue());
    }
    mono_violations_ = 0;
    flush_dirty_ = 0;
  }

  void PEval(const Query& query) { app_.PEval(query, *frag_, store_); }

  /// Clears M_i before a round's message application.
  void BeginApply() { updated_.clear(); }

  /// Applies one routed record block (a coordinator consolidated batch or
  /// a peer's direct mirror refresh) via the aggregate function; vertices
  /// whose value actually changed extend M_i.
  Status ApplyBatch(const std::vector<uint8_t>& payload) {
    Decoder dec(payload);
    // Messages carry destination-local ids straight off the routing
    // plan, so application is a direct array index — no gid hash.
    GRAPE_RETURN_NOT_OK(DecodeRecordBlock(dec, &apply_lids_, &apply_values_));
    for (size_t k = 0; k < apply_lids_.size(); ++k) {
      const LocalId lid = apply_lids_[k];
      if (lid >= static_cast<LocalId>(store_.size())) {
        return Status::Internal("routed update addresses lid " +
                                std::to_string(lid) + " outside fragment " +
                                std::to_string(frag_->fid()));
      }
      // No dirty-marking here: message application is not a local change
      // to re-broadcast; only IncEval's own writes are.
      if (Agg::Aggregate(store_.UntrackedRef(lid), apply_values_[k])) {
        updated_.push_back(lid);
      }
    }
    return Status::OK();
  }

  /// Sorts and dedups M_i (multiple batches can touch a vertex).
  void FinishApply() {
    std::sort(updated_.begin(), updated_.end());
    updated_.erase(std::unique(updated_.begin(), updated_.end()),
                   updated_.end());
  }

  /// Seeds M_i directly (the warm-start path: after a mutation batch, the
  /// touched vertices ARE the initial update set — no messages involved).
  void SeedUpdated(const std::vector<LocalId>& lids) {
    updated_.insert(updated_.end(), lids.begin(), lids.end());
    FinishApply();
  }

  /// Re-baselines monotonicity tracking on the current store values. After
  /// a fragment rebuild migrates a converged store into this core, the old
  /// baseline (InitValue everywhere) would make the first incremental
  /// flush look like a fresh descent; the warm values are the new floor.
  void SyncMonotonicityBaseline() {
    if (track_mono_) {
      prev_flushed_.assign(store_.values().begin(), store_.values().end());
    }
  }

  /// Runs IncEval on the current M_i. `incremental == false` is the
  /// ablation: pretend everything changed, forcing IncEval to re-evaluate
  /// the entire fragment (bench_inceval_bounded's "no IncEval" mode).
  void IncEval(const Query& query, bool incremental) {
    if (!incremental) {
      updated_.clear();
      for (LocalId v = 0; v < frag_->num_inner(); ++v) {
        updated_.push_back(v);
      }
    }
    app_.IncEval(query, *frag_, store_, updated_);
  }

  /// Extracts changed in-scope parameters, stages them into one reusable
  /// (dst_lid, value) block per destination fragment — addressed by the
  /// routing plan precomputed at FragmentBuilder time, so the hot path
  /// never hashes a gid — and appends the encoded buffers to `out`.
  /// Mirror refreshes have a single writer (the owner), so they need no
  /// conflict resolution and travel directly worker-to-worker;
  /// owner-bound values carry potential conflicts and go through the
  /// coordinator's aggregate function.
  void Flush(BufferPool& pool, std::vector<WorkerSend>* out) {
    const Fragment& frag = *frag_;
    std::vector<LocalId>& changed = changed_scratch_;
    store_.TakeChangedInto(&changed);
    std::vector<std::pair<VertexId, Value>> remote = store_.TakeRemote();
    flush_dirty_ = changed.size() + remote.size();
    if (changed.empty() && remote.empty()) return;

    std::vector<RecordBlock<Value>>& staging = staging_;
    std::vector<FragmentId>& dsts = staged_dsts_;
    auto stage = [&staging, &dsts](FragmentId dst, LocalId dst_lid,
                                   const Value& value) {
      RecordBlock<Value>& block = staging[dst];
      if (block.empty()) dsts.push_back(dst);
      block.Append(dst_lid, value);
    };

    std::vector<LocalId>& reset_list = reset_scratch_;
    for (LocalId lid : changed) {
      StageChangedVertex(lid, stage, &reset_list, &mono_violations_);
    }
    for (const auto& [gid, value] : remote) {
      stage(frag.OwnerOf(gid), frag.LidAtOwner(gid), value);
    }

    // Deterministic destination order.
    std::sort(dsts.begin(), dsts.end());

    const bool direct = App::kScope == MessageScope::kToMirrors;
    for (FragmentId dst : dsts) {
      RecordBlock<Value>& block = staging[dst];
      Encoder enc(pool.Acquire());
      if (!direct) enc.WriteU32(dst);
      EncodeRecordBlock(enc, block);
      out->push_back(WorkerSend{direct ? dst + 1 : kCoordinatorRank,
                                direct ? block.size() : 0, enc.TakeBuffer()});
      block.clear();
    }
    dsts.clear();
    for (LocalId lid : reset_list) {
      store_.UntrackedRef(lid) = app_.InitValue();
    }
    reset_list.clear();
    store_.RecycleRemote(std::move(remote));
  }

  Partial GetPartial(const Query& query) const {
    return app_.GetPartial(query, *frag_, store_);
  }

  double GlobalValue() const { return app_.GlobalValue(); }

  /// Serializes the cross-superstep state a recovered worker resumes
  /// with: the full parameter store, monotonicity tracking, and any
  /// private app state. Only valid at a superstep barrier (post-flush,
  /// pre-apply), where the store's dirty set and remote queue are empty
  /// and M_i is dead (the next BeginApply clears it) — so neither is
  /// captured, and restore leaves them empty.
  void EncodeCheckpoint(Encoder& enc) const {
    enc.WriteVarint(store_.values().size());
    for (const Value& v : store_.values()) EncodeValue(enc, v);
    enc.WriteBool(track_mono_);
    enc.WriteVarint(prev_flushed_.size());
    for (const Value& v : prev_flushed_) EncodeValue(enc, v);
    enc.WriteU64(mono_violations_);
    enc.WriteU64(flush_dirty_);
    if constexpr (CheckpointableApp<App>) app_.EncodeState(enc);
  }

  /// Inverse of EncodeCheckpoint over a freshly constructed core for the
  /// same fragment. All-or-nothing: any decode failure leaves the caller
  /// free to discard the core, never a half-restored store.
  Status RestoreCheckpoint(Decoder& dec) {
    uint64_t n = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
    if (n != static_cast<uint64_t>(frag_->num_local())) {
      return Status::Corruption("checkpoint store size " + std::to_string(n) +
                                " != fragment num_local " +
                                std::to_string(frag_->num_local()));
    }
    store_.Init(frag_->num_local(), app_.InitValue());
    for (LocalId lid = 0; lid < static_cast<LocalId>(n); ++lid) {
      GRAPE_RETURN_NOT_OK(DecodeValue(dec, &store_.UntrackedRef(lid)));
    }
    updated_.clear();
    GRAPE_RETURN_NOT_OK(dec.ReadBool(&track_mono_));
    uint64_t prev_n = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadVarint(&prev_n));
    if (prev_n != 0 && prev_n != static_cast<uint64_t>(frag_->num_local())) {
      return Status::Corruption("checkpoint prev-flush size mismatch");
    }
    prev_flushed_.resize(prev_n);
    for (uint64_t k = 0; k < prev_n; ++k) {
      GRAPE_RETURN_NOT_OK(DecodeValue(dec, &prev_flushed_[k]));
    }
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&mono_violations_));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&flush_dirty_));
    if constexpr (CheckpointableApp<App>) {
      GRAPE_RETURN_NOT_OK(app_.DecodeState(dec));
    }
    return Status::OK();
  }

  /// Parameters changed by the last flush (this worker's share of the
  /// engine's TotalDirty termination term).
  uint64_t flush_dirty() const { return flush_dirty_; }
  uint64_t monotonicity_violations() const { return mono_violations_; }

  const Fragment& fragment() const { return *frag_; }
  App& app() { return app_; }
  const App& app() const { return app_; }
  ParamStore<Value>& store() { return store_; }
  const ParamStore<Value>& store() const { return store_; }
  std::vector<LocalId>& updated() { return updated_; }
  const std::vector<LocalId>& updated() const { return updated_; }

 private:
  /// Stages one changed lid's outgoing records through `stage` and applies
  /// reset/monotonicity bookkeeping into `reset_list` and `mono`.
  template <typename StageFn>
  void StageChangedVertex(LocalId lid, const StageFn& stage,
                          std::vector<LocalId>* reset_list, uint64_t* mono) {
    const Fragment& frag = *frag_;
    const bool to_owner =
        App::kScope != MessageScope::kToMirrors && frag.IsOuter(lid);
    const bool to_mirrors =
        App::kScope != MessageScope::kToOwner && frag.IsBorder(lid);
    if (to_owner) {
      stage(frag.OuterOwner(lid), frag.OuterOwnerLid(lid), store_.Get(lid));
      if (App::kResetAfterFlush) reset_list->push_back(lid);
    }
    if (to_mirrors) {
      auto mirror_frags = frag.MirrorFragments(lid);
      auto mirror_lids = frag.MirrorDstLids(lid);
      for (size_t k = 0; k < mirror_frags.size(); ++k) {
        stage(mirror_frags[k], mirror_lids[k], store_.Get(lid));
      }
    }
    if (track_mono_ && Agg::kMonotonic && (to_owner || to_mirrors)) {
      if (!Agg::InOrder(store_.Get(lid), prev_flushed_[lid])) {
        (*mono)++;
      }
      prev_flushed_[lid] = store_.Get(lid);
    }
  }

  const Fragment* frag_;
  App app_;
  ParamStore<Value> store_;     // x̄_i
  std::vector<LocalId> updated_;  // M_i

  bool track_mono_ = false;
  std::vector<Value> prev_flushed_;  // monotonicity tracking
  uint64_t mono_violations_ = 0;
  uint64_t flush_dirty_ = 0;

  // Dense message-path scratch, allocated once and reused every superstep.
  std::vector<LocalId> changed_scratch_;
  std::vector<LocalId> reset_scratch_;
  std::vector<RecordBlock<Value>> staging_;  // one block per destination
  std::vector<FragmentId> staged_dsts_;
  std::vector<uint32_t> apply_lids_;
  std::vector<Value> apply_values_;
};

/// Compile-time gate for remote execution: everything the engine must
/// ship to (query) or pull back from (partial) an endpoint process has to
/// be wire codable. Apps failing this still run locally; asking for
/// remote compute yields an InvalidArgument at run time.
template <typename App>
concept RemoteCompatibleApp =
    PIEProgram<App> && WireCodable<typename App::QueryType> &&
    WireCodable<typename App::PartialType> &&
    WireCodable<typename App::ValueType>;

}  // namespace grape

#endif  // GRAPE_CORE_WORKER_CORE_H_
