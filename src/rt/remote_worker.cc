#include "rt/remote_worker.h"

#include <algorithm>

#include "rt/checkpoint.h"
#include "util/random.h"

namespace grape {

// --------------------------------------------------------------- registry

WorkerAppRegistry& WorkerAppRegistry::Global() {
  // Never destroyed: endpoint children and worker threads may consult it
  // during any teardown order.
  static WorkerAppRegistry& registry = *new WorkerAppRegistry();
  return registry;
}

void WorkerAppRegistry::Register(const std::string& name, Factory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  factories_[name] = std::move(factory);
}

bool WorkerAppRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) > 0;
}

Result<WorkerAppRegistry::Factory> WorkerAppRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound("no remote worker registered under '" + name +
                            "' in this endpoint process");
  }
  return it->second;
}

std::vector<std::string> WorkerAppRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

// --------------------------------------------------------- resident store

ResidentFragmentStore& ResidentFragmentStore::Global() {
  // Never destroyed, like the registry: worker threads may deposit during
  // any teardown order.
  static ResidentFragmentStore& store = *new ResidentFragmentStore();
  return store;
}

void ResidentFragmentStore::Put(uint64_t token, uint32_t rank,
                                std::shared_ptr<const Fragment> fragment) {
  std::lock_guard<std::mutex> lock(mu_);
  fragments_[{token, rank}] = std::move(fragment);
}

std::shared_ptr<const Fragment> ResidentFragmentStore::Get(
    uint64_t token, uint32_t rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fragments_.find({token, rank});
  return it == fragments_.end() ? nullptr : it->second;
}

void ResidentFragmentStore::Erase(uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fragments_.lower_bound({token, 0});
  while (it != fragments_.end() && it->first.first == token) {
    it = fragments_.erase(it);
  }
}

// ------------------------------------------------------------ error frame

void EncodeWorkerError(Encoder& enc, const Status& error) {
  enc.WriteI32(static_cast<int32_t>(error.code()));
  enc.WriteString(error.message());
}

Status DecodeWorkerError(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  int32_t code = 0;
  std::string message;
  if (!dec.ReadI32(&code).ok() || !dec.ReadString(&message).ok()) {
    return Status::Internal("remote worker failed (unparseable error frame)");
  }
  return Status(static_cast<StatusCode>(code),
                "remote worker: " + message);
}

// ----------------------------------------------------------- mirror frame

void EncodeMirrorAnswers(Encoder& enc,
                         const std::vector<MirrorLidEntry>& answers) {
  enc.WriteVarint(answers.size());
  for (const MirrorLidEntry& e : answers) enc.WriteU32(e.gid);
  for (const MirrorLidEntry& e : answers) enc.WriteU32(e.lid);
}

Status DecodeMirrorAnswers(Decoder& dec, std::vector<MirrorLidEntry>* answers) {
  uint64_t count = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&count));
  if (count > dec.Remaining() / 8) {
    return Status::Corruption("mirror frame extends past end of buffer");
  }
  answers->resize(count);
  for (MirrorLidEntry& e : *answers) GRAPE_RETURN_NOT_OK(dec.ReadU32(&e.gid));
  for (MirrorLidEntry& e : *answers) GRAPE_RETURN_NOT_OK(dec.ReadU32(&e.lid));
  return Status::OK();
}

// ------------------------------------------------------------------- host

RemoteWorkerHost::RemoteWorkerHost(uint32_t rank, Emit emit, BufferPool* pool)
    : rank_(rank),
      emit_(std::move(emit)),
      pool_(pool != nullptr ? pool : &owned_pool_) {}

Status RemoteWorkerHost::EmitError(const Status& error) {
  Encoder enc(pool_->Acquire());
  EncodeWorkerError(enc, error);
  return emit_(kCoordinatorRank, kTagWkError, enc.TakeBuffer());
}

Status RemoteWorkerHost::EmitAck(const WorkerAck& ack) {
  Encoder enc(pool_->Acquire());
  ack.EncodeTo(enc);
  return emit_(kCoordinatorRank, kTagWkAck, enc.TakeBuffer());
}

Status RemoteWorkerHost::EmitOpenAck(uint8_t phase, uint32_t round) {
  WorkerAck ack;
  ack.phase = phase;
  ack.round = round;
  ack.worker_pid = static_cast<uint64_t>(getpid());
  return EmitAck(ack);
}

RemoteWorkerHost::Slot* RemoteWorkerHost::FindSlot(const std::string& app) {
  auto it = slots_.find(app);
  return it == slots_.end() ? nullptr : &it->second;
}

void RemoteWorkerHost::ClearRound() {
  current_ = nullptr;
  for (PendingFrame& f : pending_) pool_->Release(std::move(f.payload));
  pending_.clear();
  inc_pending_ = false;
  ckpt_pending_ = false;
}

void RemoteWorkerHost::AdoptFragment(std::shared_ptr<const Fragment> fragment,
                                     uint64_t token) {
  if (fragment != fragment_) {
    // Retire the slots before the fragment they reference can go.
    slots_.clear();
    ClearRound();
  }
  fragment_ = std::move(fragment);
  token_ = token;
}

Status RemoteWorkerHost::AttachResident(uint64_t token) {
  if (fragment_ != nullptr && token == token_) return Status::OK();
  std::shared_ptr<const Fragment> resident =
      ResidentFragmentStore::Global().Get(token, rank_);
  if (resident == nullptr) {
    return Status::NotFound(
        "no resident fragment for build token " + std::to_string(token) +
        " at rank " + std::to_string(rank_) +
        " (never built or deposited on this world, or released)");
  }
  AdoptFragment(std::move(resident), token);
  return Status::OK();
}

Status RemoteWorkerHost::HandleLoad(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  std::string app_name;
  uint8_t flags = 0;
  Status parse = dec.ReadString(&app_name);
  if (parse.ok()) parse = dec.ReadU8(&flags);
  if (!parse.ok()) return EmitError(parse);
  // A load is an implicit reload of its slot: every run begins with its
  // own kTagWkLoad, and an engine whose previous run failed mid-phase (so
  // no shutdown was sent) must still be able to start over on the same
  // world. Anything buffered for the abandoned run dies with the old
  // server. (A flaky-duplicated load frame re-loads the identical state
  // and its second ack is ignored engine-side — harmless.)
  ClearRound();
  AbandonMutation();
  slots_.erase(app_name);
  auto factory = WorkerAppRegistry::Global().Get(app_name);
  if (!factory.ok()) return EmitError(factory.status());
  std::unique_ptr<WorkerAppServerBase> server = (*factory)();
  if (Status s = server->DecodeQuery(dec); !s.ok()) return EmitError(s);
  uint64_t token = 0;
  Status s = dec.ReadU64(&token);
  if (s.ok()) s = AttachResident(token);
  if (!s.ok()) return EmitError(s);
  Slot& slot = slots_[app_name];
  slot.server = std::move(server);
  slot.check_monotonicity = (flags & kWkLoadCheckMonotonicity) != 0;
  slot.server->Seat(*fragment_, slot.check_monotonicity);
  current_ = &slot;
  return EmitOpenAck(kWkPhaseLoad, 0);
}

Status RemoteWorkerHost::HandleDeposit(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  uint64_t token = 0;
  auto owned = std::make_shared<Fragment>();
  Status s = dec.ReadU64(&token);
  if (s.ok()) s = Fragment::DecodeFrom(dec, owned.get());
  if (s.ok() && owned->fid() + 1 != rank_) {
    s = Status::InvalidArgument(
        "fragment " + std::to_string(owned->fid()) + " deposited at rank " +
        std::to_string(rank_) + " (worker rank must be fid + 1)");
  }
  if (!s.ok()) return EmitError(s);
  return KeepAndAck(kTagWkBuildAck, token, std::move(owned));
}

Status RemoteWorkerHost::KeepAndAck(uint32_t tag, uint64_t token,
                                    std::shared_ptr<const Fragment> frag) {
  WkBuildAck ack;
  ack.token = token;
  ack.num_inner = frag->num_inner();
  ack.num_local = frag->num_local();
  ack.num_arcs = frag->num_edges();
  if (token != 0) {
    ResidentFragmentStore::Global().Put(token, rank_, std::move(frag));
  }
  Encoder enc(pool_->Acquire());
  ack.EncodeTo(enc);
  return emit_(kCoordinatorRank, tag, enc.TakeBuffer());
}

void RemoteWorkerHost::HandleRelease(const std::vector<uint8_t>& payload) {
  // Never answered, so an unparseable frame is dropped (as in Shutdown).
  Decoder dec(payload);
  uint64_t token = 0;
  if (!dec.ReadU64(&token).ok()) return;
  ResidentFragmentStore::Global().Erase(token);
  if (fragment_ != nullptr && token == token_) {
    AbandonMutation();
    AdoptFragment(nullptr, 0);
  }
}

Status RemoteWorkerHost::HandleQuery(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  std::string app_name;
  if (Status s = dec.ReadString(&app_name); !s.ok()) return EmitError(s);
  // Sessions only advance between completed runs, so anything still
  // buffered belongs to an abandoned round; clear it exactly as a reload
  // would, minus the fragment work.
  ClearRound();
  AbandonMutation();
  Slot* slot = FindSlot(app_name);
  if (slot == nullptr) {
    return EmitError(Status::FailedPrecondition(
        "session query for app '" + app_name +
        "' before a successful load"));
  }
  current_ = slot;
  if (Status s = slot->server->DecodeQuery(dec); !s.ok()) return EmitError(s);
  slot->server->Seat(*fragment_, slot->check_monotonicity);
  return EmitOpenAck(kWkPhaseLoad, 0);
}

void RemoteWorkerHost::HandleShutdown(const std::vector<uint8_t>& payload) {
  // Retire the named slot only: the other slots' sessions stay warm, and
  // the host stays reloadable. Nobody awaits a reply, so an unparseable
  // frame is dropped rather than answered with an error the next query's
  // wait would trip over.
  Decoder dec(payload);
  std::string app_name;
  if (!dec.ReadString(&app_name).ok()) return;
  auto it = slots_.find(app_name);
  if (it == slots_.end()) return;
  if (current_ == &it->second) ClearRound();
  slots_.erase(it);
}

Status RemoteWorkerHost::RunPhase(uint8_t phase, uint32_t round,
                                  bool incremental) {
  WorkerAppServerBase& server = *current_->server;
  WorkerPhaseOutput out;
  Status s = phase == kWkPhasePEval
                 ? server.PEval(*pool_, &out)
                 : server.IncEval(incremental, *pool_, &out);
  if (!s.ok()) return EmitError(s);

  WorkerAck ack;
  ack.phase = phase;
  ack.round = round;
  ack.dirty = out.dirty;
  ack.direct_updates = out.direct_updates;
  ack.updated_count = out.updated_count;
  ack.mono_violations = out.mono_violations;
  ack.global = out.global;
  ack.worker_pid = static_cast<uint64_t>(getpid());
  for (WorkerSend& send : out.sends) {
    const bool direct = send.dst_rank != kCoordinatorRank;
    // The engine folds these into its CommStats view with the same
    // formula local mode's Send-side counting uses: payload + 16-byte
    // envelope per frame.
    ack.sent_messages++;
    ack.sent_bytes += send.payload.size() + kFrameHeaderBytes;
    if (direct) ack.direct_frames.emplace_back(send.dst_rank, 1u);
    GRAPE_RETURN_NOT_OK(emit_(send.dst_rank,
                              direct ? kTagWkDirect : kTagWkData,
                              std::move(send.payload)));
  }
  // FIFO per channel makes this ack the delivery barrier for everything
  // emitted above on the (rank, 0) channel.
  return EmitAck(ack);
}

Status RemoteWorkerHost::MaybeRunIncEval() {
  if (!inc_pending_ || current_ == nullptr) return Status::OK();

  // Are this round's deliveries complete? Coordinator batches plus the
  // per-sender direct-frame expectations from the command.
  uint32_t apply_have = 0;
  for (const PendingFrame& f : pending_) {
    if (f.tag == kTagWkApply) apply_have++;
  }
  if (apply_have < cmd_.apply_frames) return Status::OK();
  for (const auto& [from, need] : cmd_.expect_direct) {
    uint32_t have = 0;
    for (const PendingFrame& f : pending_) {
      if (f.tag == kTagWkDirect && f.from == from) have++;
    }
    if (have < need) return Status::OK();
  }

  // Consume exactly this round's frames in arrival order (a racing
  // peer's next-round refresh stays buffered: FIFO per channel means its
  // first `need` frames from a sender are that sender's current-round
  // ones), apply them, and run IncEval.
  WorkerAppServerBase& server = *current_->server;
  server.BeginApply();
  uint32_t apply_taken = 0;
  std::map<uint32_t, uint32_t> direct_quota;
  for (const auto& [from, need] : cmd_.expect_direct) {
    direct_quota[from] += need;
  }
  std::vector<PendingFrame> keep;
  Status apply_status = Status::OK();
  for (PendingFrame& f : pending_) {
    bool take = false;
    if (f.tag == kTagWkApply && apply_taken < cmd_.apply_frames) {
      take = true;
      apply_taken++;
    } else if (f.tag == kTagWkDirect) {
      auto it = direct_quota.find(f.from);
      if (it != direct_quota.end() && it->second > 0) {
        take = true;
        it->second--;
      }
    }
    if (take && apply_status.ok()) {
      apply_status = server.ApplyFrame(f.payload);
      pool_->Release(std::move(f.payload));
    } else if (take) {
      pool_->Release(std::move(f.payload));
    } else {
      keep.push_back(std::move(f));
    }
  }
  pending_ = std::move(keep);
  inc_pending_ = false;
  if (!apply_status.ok()) return EmitError(apply_status);
  return RunPhase(kWkPhaseIncEval, cmd_.round, cmd_.incremental);
}

// ---------------------------------------------------- checkpoint / restore

Status RemoteWorkerHost::HandleCheckpointCmd(
    const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  WkCheckpointCommand cmd;
  if (Status s = WkCheckpointCommand::DecodeFrom(dec, &cmd); !s.ok()) {
    return EmitError(s);
  }
  if (current_ == nullptr) {
    return EmitError(
        Status::FailedPrecondition("checkpoint before a successful load"));
  }
  if (inc_pending_ || ckpt_pending_) {
    return EmitError(Status::FailedPrecondition(
        "checkpoint command overlapping another command"));
  }
  ckpt_cmd_ = std::move(cmd);
  ckpt_pending_ = true;
  return MaybeCheckpoint();
}

Status RemoteWorkerHost::MaybeCheckpoint() {
  if (!ckpt_pending_ || current_ == nullptr) return Status::OK();
  // The barrier: every direct frame the engine knows was emitted toward us
  // this round must already be buffered, or the image would miss part of
  // the message frontier a recovered run replays.
  for (const auto& [from, need] : ckpt_cmd_.expect_direct) {
    uint32_t have = 0;
    for (const PendingFrame& f : pending_) {
      if (f.tag == kTagWkDirect && f.from == from) have++;
    }
    if (have < need) return Status::OK();
  }
  ckpt_pending_ = false;

  CheckpointImage image;
  image.rank = rank_;
  image.round = ckpt_cmd_.round;
  Encoder state(pool_->Acquire());
  current_->server->EncodeCheckpoint(state);
  image.state = state.TakeBuffer();
  image.pending.reserve(pending_.size());
  for (const PendingFrame& f : pending_) {
    // Copies, not moves: execution continues from the live buffers.
    image.pending.push_back(
        CheckpointImage::PendingWireFrame{f.from, f.tag, f.payload});
  }
  std::vector<uint8_t> encoded = EncodeCheckpointImage(image);

  WkCheckpointAck ack;
  ack.round = ckpt_cmd_.round;
  ack.bytes = encoded.size();
  if (ckpt_cmd_.dir.empty()) {
    ack.image = std::move(encoded);
  } else {
    CheckpointStore store(ckpt_cmd_.dir);
    if (Status s = store.Put(rank_, ckpt_cmd_.round, std::move(encoded));
        !s.ok()) {
      return EmitError(s);
    }
  }
  Encoder enc(pool_->Acquire());
  ack.EncodeTo(enc);
  return emit_(kCoordinatorRank, kTagWkCheckpointAck, enc.TakeBuffer());
}

Status RemoteWorkerHost::HandleRestore(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  WkRestoreCommand cmd;
  if (Status s = WkRestoreCommand::DecodeFrom(dec, &cmd); !s.ok()) {
    return EmitError(s);
  }
  // A restore replaces whatever partial state its slot has, exactly like
  // a load does — the previous run attempt is dead by definition.
  ClearRound();
  AbandonMutation();
  slots_.erase(cmd.app_name);

  Result<CheckpointImage> image =
      cmd.dir.empty()
          ? DecodeCheckpointImage(cmd.image.data(), cmd.image.size())
          : CheckpointStore(cmd.dir).Get(rank_, cmd.round);
  if (!image.ok()) return EmitError(image.status());
  if (image->round != cmd.round || image->rank != rank_) {
    return EmitError(Status::InvalidArgument(
        "restore image is rank " + std::to_string(image->rank) + " round " +
        std::to_string(image->round) + ", command wants rank " +
        std::to_string(rank_) + " round " + std::to_string(cmd.round)));
  }

  auto factory = WorkerAppRegistry::Global().Get(cmd.app_name);
  if (!factory.ok()) return EmitError(factory.status());
  std::unique_ptr<WorkerAppServerBase> server = (*factory)();
  // The image: query, the whole fragment, then the core state.
  Decoder state(image->state);
  auto owned = std::make_shared<Fragment>();
  Status s = server->DecodeQuery(state);
  if (s.ok()) s = Fragment::DecodeFrom(state, owned.get());
  if (s.ok() && owned->fid() + 1 != rank_) {
    s = Status::InvalidArgument(
        "checkpoint of fragment " + std::to_string(owned->fid()) +
        " restored at rank " + std::to_string(rank_));
  }
  if (!s.ok()) return EmitError(s);
  AdoptFragment(std::move(owned), 0);
  const bool check = (cmd.flags & kWkLoadCheckMonotonicity) != 0;
  server->Seat(*fragment_, check);
  if (Status r = server->RestoreCore(state); !r.ok()) return EmitError(r);
  Slot& slot = slots_[cmd.app_name];
  slot.server = std::move(server);
  slot.check_monotonicity = check;
  current_ = &slot;
  for (CheckpointImage::PendingWireFrame& f : image->pending) {
    pending_.push_back(PendingFrame{f.from, f.tag, std::move(f.payload)});
  }
  return EmitOpenAck(kWkPhaseRestore, image->round);
}

// ------------------------------------------------- distributed build steps

namespace {

/// Chunk size for edge exchange: ~28 wire bytes per edge keeps frames
/// around 1 MB — large enough to amortize the envelope, small enough to
/// interleave fairly on a shared link.
constexpr size_t kExchangeChunkEdges = 32 * 1024;

}  // namespace

Status RemoteWorkerHost::HandleShard(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  WkShardCommand cmd;
  if (Status s = WkShardCommand::DecodeFrom(dec, &cmd); !s.ok()) {
    return EmitError(s);
  }
  if (cmd.num_fragments == 0 || rank_ == 0 || rank_ > cmd.num_fragments) {
    return EmitError(Status::InvalidArgument(
        "shard command for a world of " + std::to_string(cmd.num_fragments) +
        " fragments reached rank " + std::to_string(rank_)));
  }
  // A new shard command replaces any unfinished build (the coordinator
  // abandoned it); stale frames of the old session are dropped by token.
  build_.emplace();
  build_->token = cmd.token;
  auto shard = ReadEdgeShard(cmd.path,
                             ShardRange{cmd.offset, cmd.length}, cmd.format);
  if (!shard.ok()) {
    build_.reset();
    return EmitError(shard.status());
  }
  build_->shard_edges = std::move(shard->edges);
  build_->shard_edge_count = build_->shard_edges.size();
  WkShardAck ack;
  ack.token = cmd.token;
  ack.max_vertex_plus1 = shard->max_vertex_plus1;
  ack.num_edges = build_->shard_edge_count;
  build_->cmd = std::move(cmd);
  Encoder enc(pool_->Acquire());
  ack.EncodeTo(enc);
  return emit_(kCoordinatorRank, kTagWkShardAck, enc.TakeBuffer());
}

Status RemoteWorkerHost::HandleBuildCmd(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  uint64_t token = 0;
  VertexId total = 0;
  Status s = dec.ReadU64(&token);
  if (s.ok()) s = dec.ReadU32(&total);
  if (!s.ok()) return EmitError(s);
  if (!build_ || build_->token != token) {
    return EmitError(Status::FailedPrecondition(
        "build command for token " + std::to_string(token) +
        " without a matching shard"));
  }
  BuildSession& b = *build_;
  const uint32_t n = b.cmd.num_fragments;
  const FragmentId fid = rank_ - 1;

  // Ownership tables, derived locally: the hash policy is pure arithmetic
  // and the explicit policy shipped with the shard command. owner_lid is
  // one counting pass — never transmitted.
  auto owner = std::make_shared<std::vector<FragmentId>>();
  if (b.cmd.policy == kWkPartitionExplicit) {
    if (b.cmd.assignment.size() != total) {
      build_.reset();
      return EmitError(Status::InvalidArgument(
          "explicit assignment sized " +
          std::to_string(b.cmd.assignment.size()) + " for " +
          std::to_string(total) + " vertices"));
    }
    *owner = b.cmd.assignment;
  } else {
    owner->resize(total);
    for (VertexId v = 0; v < total; ++v) {
      (*owner)[v] = static_cast<FragmentId>(SplitMix64(v) % n);
    }
  }
  b.owner = owner;
  b.owner_lid = std::make_shared<const std::vector<LocalId>>(
      FragmentBuilder::OwnerLidTable(*owner, n));
  b.total_vertices = total;

  // Route the shard: each edge goes to the owner of each endpoint (once
  // when they coincide). Self-owned edges stay; the rest stream out in
  // chunks, closed by one final chunk per peer — even an empty one, so
  // every receiver sees exactly n-1 finals.
  std::vector<ShardEdge> shard_edges = std::move(b.shard_edges);
  b.shard_edges.clear();
  std::vector<std::vector<ShardEdge>> outbound(n);
  for (const ShardEdge& se : shard_edges) {
    if (se.edge.src >= total || se.edge.dst >= total) {
      build_.reset();
      return EmitError(Status::Corruption(
          "shard edge endpoint outside the announced vertex count"));
    }
    const FragmentId f1 = (*owner)[se.edge.src];
    const FragmentId f2 = (*owner)[se.edge.dst];
    if (f1 == fid) {
      b.edges.push_back(se);
    } else {
      outbound[f1].push_back(se);
    }
    if (f2 != f1) {
      if (f2 == fid) {
        b.edges.push_back(se);
      } else {
        outbound[f2].push_back(se);
      }
    }
  }
  shard_edges.clear();
  shard_edges.shrink_to_fit();
  for (FragmentId f = 0; f < n; ++f) {
    if (f == fid) continue;
    const std::vector<ShardEdge>& q = outbound[f];
    size_t sent = 0;
    do {
      const size_t count = std::min(kExchangeChunkEdges, q.size() - sent);
      const bool final = sent + count == q.size();
      Encoder enc(pool_->Acquire());
      EncodeExchangeChunk(enc, b.token, final, q.data() + sent, count);
      GRAPE_RETURN_NOT_OK(emit_(f + 1, kTagWkExchange, enc.TakeBuffer()));
      sent += count;
    } while (sent < q.size());
  }
  b.exchanging = true;
  return MaybeAssemble();
}

Status RemoteWorkerHost::HandleExchange(const std::vector<uint8_t>& payload) {
  // A chunk with no live session, or a stale token, belongs to an
  // abandoned build: dropped, not fatal.
  if (!build_) return Status::OK();
  Decoder dec(payload);
  uint64_t token = 0;
  bool final = false;
  std::vector<ShardEdge> chunk;
  if (Status s = DecodeExchangeChunk(dec, &token, &final, &chunk); !s.ok()) {
    return EmitError(s);
  }
  if (token != build_->token) return Status::OK();
  build_->edges.insert(build_->edges.end(), chunk.begin(), chunk.end());
  if (final) ++build_->finals_seen;
  return MaybeAssemble();
}

Status RemoteWorkerHost::MaybeAssemble() {
  if (!build_ || !build_->exchanging || build_->assembled) {
    return Status::OK();
  }
  BuildSession& b = *build_;
  const uint32_t n = b.cmd.num_fragments;
  if (b.finals_seen < n - 1) return Status::OK();
  const FragmentId fid = rank_ - 1;

  // Restore whole-file parse order (keys are line byte offsets), so the
  // mini-graph's inner adjacency rows match a coordinator build bit for
  // bit.
  std::sort(b.edges.begin(), b.edges.end(),
            [](const ShardEdge& x, const ShardEdge& y) {
              return x.key < y.key;
            });
  GraphBuilder builder(b.cmd.format.directed);
  builder.ReserveEdges(b.edges.size());
  for (const ShardEdge& se : b.edges) builder.AddEdge(se.edge);
  b.edges.clear();
  b.edges.shrink_to_fit();
  auto graph = std::move(builder).Build(b.total_vertices);
  if (!graph.ok()) {
    build_.reset();
    return EmitError(graph.status());
  }
  auto frag = FragmentBuilder::AssembleLocal(*graph, b.owner, b.owner_lid,
                                             fid, n);
  if (!frag.ok()) {
    build_.reset();
    return EmitError(frag.status());
  }
  b.fragment = std::make_shared<Fragment>(std::move(frag).value());
  b.assembled = true;

  // Mirror answers: one frame to every peer (possibly empty), the static
  // expectation that doubles as this step's delivery barrier.
  auto answers = FragmentBuilder::MirrorAnswers(*b.fragment);
  for (FragmentId f = 0; f < n; ++f) {
    if (f == fid) continue;
    Encoder enc(pool_->Acquire());
    enc.WriteU64(b.token);
    EncodeMirrorAnswers(enc, answers[f]);
    GRAPE_RETURN_NOT_OK(emit_(f + 1, kTagWkMirror, enc.TakeBuffer()));
  }

  // Answers that raced ahead of our assembly.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> early =
      std::move(b.early_mirrors);
  b.early_mirrors.clear();
  for (auto& [from, buffered] : early) {
    GRAPE_RETURN_NOT_OK(ApplyMirrorFrame(from, buffered));
    if (!build_) return Status::OK();  // a corrupt frame ended the session
  }
  return MaybeFinishBuild();
}

Status RemoteWorkerHost::ApplyMirrorFrame(
    uint32_t from, const std::vector<uint8_t>& payload) {
  BuildSession& b = *build_;
  Decoder dec(payload);
  uint64_t token = 0;
  if (Status s = dec.ReadU64(&token); !s.ok()) return EmitError(s);
  if (token != b.token) return Status::OK();  // stale session, drop
  std::vector<MirrorLidEntry> answers;
  Status s = DecodeMirrorAnswers(dec, &answers);
  if (s.ok()) {
    s = FragmentBuilder::ApplyMirrorAnswers(b.fragment.get(), from - 1,
                                            answers);
  }
  if (!s.ok()) {
    build_.reset();
    return EmitError(s);
  }
  ++b.mirrors_seen;
  return Status::OK();
}

Status RemoteWorkerHost::HandleMirror(uint32_t from,
                                      std::vector<uint8_t> payload) {
  if (!build_) return Status::OK();  // stale frame of an abandoned build
  if (!build_->assembled) {
    build_->early_mirrors.emplace_back(from, std::move(payload));
    return Status::OK();
  }
  GRAPE_RETURN_NOT_OK(ApplyMirrorFrame(from, payload));
  if (!build_) return Status::OK();
  return MaybeFinishBuild();
}

Status RemoteWorkerHost::MaybeFinishBuild() {
  BuildSession& b = *build_;
  if (!b.assembled || b.mirrors_seen < b.cmd.num_fragments - 1) {
    return Status::OK();
  }
  if (Status s = FragmentBuilder::CheckMirrorsResolved(*b.fragment);
      !s.ok()) {
    build_.reset();
    return EmitError(s);
  }
  const uint64_t token = b.token;
  std::shared_ptr<const Fragment> built = std::move(b.fragment);
  build_.reset();
  return KeepAndAck(kTagWkBuildAck, token, std::move(built));
}

// ------------------------------------------------- streaming mutation steps

void RemoteWorkerHost::AbandonMutation() {
  if (mut_ && mut_->fragment != nullptr) {
    slots_.clear();
    ClearRound();
  }
  mut_.reset();
}

Status RemoteWorkerHost::FailMutation(const Status& error) {
  AbandonMutation();
  return EmitError(error);
}

Status RemoteWorkerHost::HandleMutate(const std::vector<uint8_t>& payload) {
  if (inc_pending_ || ckpt_pending_) {
    return EmitError(Status::FailedPrecondition(
        "mutation command overlapping another command"));
  }
  // A rebuild still in flight belongs to an abandoned mutation (the
  // engine only sends the next batch after the last one's acks).
  if (mut_ && mut_->fragment != nullptr) AbandonMutation();
  Decoder dec(payload);
  uint64_t token = 0;
  MutationBatch batch;
  Status s = dec.ReadU64(&token);
  if (s.ok()) s = MutationBatch::DecodeFrom(dec, &batch);
  // The token names the resident fragment to patch, so a host with no
  // live slot (or a fresh in-thread host) can still carry the batch into
  // the store every later attach reads.
  if (s.ok()) s = AttachResident(token);
  Result<Fragment> rebuilt =
      s.ok() ? FragmentBuilder::MutateFragment(*fragment_, batch)
             : Result<Fragment>(s);
  if (rebuilt.ok() && rebuilt->num_inner() != fragment_->num_inner()) {
    rebuilt = Status::Internal(
        "edge mutation changed the inner vertex set (ownership is fixed)");
  }
  if (!rebuilt.ok()) {
    mut_.reset();
    return EmitError(rebuilt.status());
  }
  // Peers that mutated first may already have buffered frames for this
  // session into mut_ — keep them.
  if (!mut_) mut_.emplace();
  mut_->fragment = std::make_shared<Fragment>(std::move(rebuilt).value());
  for (auto& [name, slot] : slots_) {
    slot.server->Reseat(*mut_->fragment, slot.check_monotonicity);
    slot.warm_frames = 0;
  }

  // Our rebuilt outer placements, one frame per peer (possibly empty —
  // the static n-1 expectation doubles as the exchange's barrier). The
  // peer answers each with the warm values for the gids we declared.
  const uint32_t n = fragment_->num_fragments();
  const FragmentId fid = rank_ - 1;
  auto answers = FragmentBuilder::MirrorAnswers(*mut_->fragment);
  for (FragmentId f = 0; f < n; ++f) {
    if (f == fid) continue;
    Encoder enc(pool_->Acquire());
    EncodeMirrorAnswers(enc, answers[f]);
    GRAPE_RETURN_NOT_OK(emit_(f + 1, kTagWkMutMirror, enc.TakeBuffer()));
  }

  // Frames that raced ahead of our rebuild.
  auto early_mirrors = std::move(mut_->early_mirrors);
  mut_->early_mirrors.clear();
  for (auto& [peer, buffered] : early_mirrors) {
    GRAPE_RETURN_NOT_OK(ApplyMutMirrorFrame(peer, buffered));
    if (!mut_) return Status::OK();  // a bad frame ended the session
  }
  auto early_vals = std::move(mut_->early_vals);
  mut_->early_vals.clear();
  for (auto& [peer, buffered] : early_vals) {
    (void)peer;
    GRAPE_RETURN_NOT_OK(ApplyMutValsFrame(buffered));
    if (!mut_) return Status::OK();
  }
  return MaybeFinishMutate();
}

Status RemoteWorkerHost::ApplyMutMirrorFrame(
    uint32_t from, const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  std::vector<MirrorLidEntry> answers;
  Status s = DecodeMirrorAnswers(dec, &answers);
  const Fragment& frag = *mut_->fragment;
  if (s.ok()) {
    s = FragmentBuilder::ApplyMirrorAnswers(mut_->fragment.get(), from - 1,
                                            answers);
  }
  // The peer declared outer copies of these gids: each must be one of our
  // inner vertices, whose converged value every slot ships back under the
  // peer's lid.
  std::vector<uint32_t> requester_lids;
  std::vector<LocalId> here;
  requester_lids.reserve(answers.size());
  here.reserve(answers.size());
  for (const MirrorLidEntry& e : answers) {
    if (!s.ok()) break;
    const LocalId lid = frag.Lid(e.gid);
    if (lid == kInvalidLocal || lid >= frag.num_inner()) {
      s = Status::InvalidArgument(
          "warm-value request for gid " + std::to_string(e.gid) +
          " not owned by fragment " + std::to_string(frag.fid()));
      break;
    }
    requester_lids.push_back(e.lid);
    here.push_back(lid);
  }
  if (!s.ok()) return FailMutation(s);
  // One length-prefixed record block per slot, by name, so a receiver
  // can skip a slot it does not host.
  Encoder vals(pool_->Acquire());
  vals.WriteVarint(slots_.size());
  Encoder block(pool_->Acquire());
  for (const auto& [name, slot] : slots_) {
    block.Clear();
    slot.server->EncodeWarmValues(requester_lids, here, block);
    vals.WriteString(name);
    vals.WritePodVector(block.buffer());
  }
  pool_->Release(block.TakeBuffer());
  ++mut_->mirrors_seen;
  return emit_(from, kTagWkMutVals, vals.TakeBuffer());
}

Status RemoteWorkerHost::ApplyMutValsFrame(
    const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  uint64_t count = 0;
  Status s = dec.ReadVarint(&count);
  std::string name;
  std::vector<uint8_t> block;
  for (uint64_t k = 0; k < count && s.ok(); ++k) {
    s = dec.ReadString(&name);
    if (s.ok()) s = dec.ReadPodVector(&block);
    if (!s.ok()) break;
    Slot* slot = FindSlot(name);
    if (slot == nullptr) continue;  // not live here: retired at finish
    Decoder values(block);
    s = slot->server->AbsorbWarmValues(values);
    ++slot->warm_frames;
  }
  if (!s.ok()) return FailMutation(s);
  ++mut_->vals_seen;
  return Status::OK();
}

Status RemoteWorkerHost::HandleMutMirror(uint32_t from,
                                         std::vector<uint8_t> payload) {
  if (!mut_) mut_.emplace();
  if (mut_->fragment == nullptr) {
    mut_->early_mirrors.emplace_back(from, std::move(payload));
    return Status::OK();
  }
  GRAPE_RETURN_NOT_OK(ApplyMutMirrorFrame(from, payload));
  pool_->Release(std::move(payload));
  if (!mut_) return Status::OK();
  return MaybeFinishMutate();
}

Status RemoteWorkerHost::HandleMutVals(uint32_t from,
                                       std::vector<uint8_t> payload) {
  if (!mut_) mut_.emplace();
  if (mut_->fragment == nullptr) {
    // Defensive: an owner's reply follows our own mirror frame, which we
    // only send after rebuilding — but a flaky substrate's duplicate
    // could arrive any time, and buffering is always safe.
    mut_->early_vals.emplace_back(from, std::move(payload));
    return Status::OK();
  }
  GRAPE_RETURN_NOT_OK(ApplyMutValsFrame(payload));
  pool_->Release(std::move(payload));
  if (!mut_) return Status::OK();
  return MaybeFinishMutate();
}

Status RemoteWorkerHost::MaybeFinishMutate() {
  if (!mut_ || mut_->fragment == nullptr) return Status::OK();
  const uint32_t n = fragment_->num_fragments();
  if (mut_->mirrors_seen < n - 1 || mut_->vals_seen < n - 1) {
    return Status::OK();
  }
  if (Status s = FragmentBuilder::CheckMirrorsResolved(*mut_->fragment);
      !s.ok()) {
    return FailMutation(s);
  }
  std::shared_ptr<const Fragment> frozen = std::move(mut_->fragment);
  mut_.reset();
  // Inner values are the previous fixpoint, outer values the owners'
  // replies: each slot's store now matches what a local warm start holds.
  // A slot some owner did not answer for (it was not live there) would
  // warm-start from cold outer copies; retire it instead.
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second.warm_frames < n - 1) {
      if (current_ == &it->second) ClearRound();
      it = slots_.erase(it);
    } else {
      it->second.server->SyncMonotonicityBaseline();
      ++it;
    }
  }
  fragment_ = std::move(frozen);
  return KeepAndAck(kTagWkMutateAck, token_, fragment_);
}

Status RemoteWorkerHost::HandleIncStart(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  std::string app_name;
  std::vector<VertexId> touched;
  bool incremental = true;
  Status s = dec.ReadString(&app_name);
  if (s.ok()) s = dec.ReadPodVector(&touched);
  if (s.ok()) s = dec.ReadBool(&incremental);
  if (!s.ok()) return EmitError(s);
  Slot* slot = FindSlot(app_name);
  if (slot == nullptr) {
    return EmitError(Status::FailedPrecondition(
        "warm IncEval start for app '" + app_name +
        "' before a successful load"));
  }
  if (mut_) {
    return EmitError(Status::FailedPrecondition(
        "warm IncEval start during an unfinished mutation"));
  }
  // Deliberately no ClearRound: a fast peer's round-1 direct frames may
  // already be buffered for this very start.
  current_ = slot;
  std::vector<LocalId> lids;
  lids.reserve(touched.size());
  for (VertexId gid : touched) {
    const LocalId lid = fragment_->Lid(gid);
    if (lid != kInvalidLocal) lids.push_back(lid);
  }
  slot->server->SeedTouched(lids);
  return RunPhase(kWkPhaseIncEval, 1, incremental);
}

Status RemoteWorkerHost::OnFrame(uint32_t from, uint32_t tag,
                                 std::vector<uint8_t> payload) {
  switch (tag) {
    case kTagWkShard: {
      Status s = HandleShard(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkBuild: {
      Status s = HandleBuildCmd(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkExchange: {
      Status s = HandleExchange(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkMirror:
      return HandleMirror(from, std::move(payload));
    case kTagWkLoad: {
      Status s = HandleLoad(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkQuery: {
      Status s = HandleQuery(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkRunPEval: {
      pool_->Release(std::move(payload));
      if (current_ == nullptr) {
        return EmitError(Status::FailedPrecondition(
            "RunPEval before a successful load"));
      }
      return RunPhase(kWkPhasePEval, 1, true);
    }
    case kTagWkApply:
    case kTagWkDirect: {
      if (current_ == nullptr) {
        // No query is open: a leftover of an abandoned round, whose
        // engine has already given up on it.
        pool_->Release(std::move(payload));
        return Status::OK();
      }
      pending_.push_back(PendingFrame{from, tag, std::move(payload)});
      // At most one of the two can be armed: checkpoints only happen at
      // barriers, between a round's ack and the next round's command.
      if (ckpt_pending_) return MaybeCheckpoint();
      return MaybeRunIncEval();
    }
    case kTagWkRunIncEval: {
      if (current_ == nullptr) {
        pool_->Release(std::move(payload));
        return EmitError(Status::FailedPrecondition(
            "RunIncEval before a successful load"));
      }
      if (inc_pending_) {
        pool_->Release(std::move(payload));
        return EmitError(Status::FailedPrecondition(
            "overlapping RunIncEval commands (duplicated control frame?)"));
      }
      Decoder dec(payload);
      IncEvalCommand cmd;
      if (Status s = IncEvalCommand::DecodeFrom(dec, &cmd); !s.ok()) {
        pool_->Release(std::move(payload));
        return EmitError(s);
      }
      pool_->Release(std::move(payload));
      cmd_ = std::move(cmd);
      inc_pending_ = true;
      return MaybeRunIncEval();
    }
    case kTagWkGetPartial: {
      pool_->Release(std::move(payload));
      if (current_ == nullptr) {
        return EmitError(Status::FailedPrecondition(
            "GetPartial before a successful load"));
      }
      Encoder enc(pool_->Acquire());
      GRAPE_RETURN_NOT_OK(current_->server->EncodePartial(enc));
      return emit_(kCoordinatorRank, kTagWkPartial, enc.TakeBuffer());
    }
    case kTagWkMutate: {
      Status s = HandleMutate(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkMutMirror:
      return HandleMutMirror(from, std::move(payload));
    case kTagWkMutVals:
      return HandleMutVals(from, std::move(payload));
    case kTagWkIncStart: {
      Status s = HandleIncStart(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkCheckpoint: {
      Status s = HandleCheckpointCmd(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkRestore: {
      Status s = HandleRestore(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkShutdown: {
      HandleShutdown(payload);
      pool_->Release(std::move(payload));
      return Status::OK();
    }
    case kTagWkDeposit: {
      Status s = HandleDeposit(payload);
      pool_->Release(std::move(payload));
      return s;
    }
    case kTagWkRelease: {
      HandleRelease(payload);
      pool_->Release(std::move(payload));
      return Status::OK();
    }
    default: {
      pool_->Release(std::move(payload));
      return EmitError(Status::Internal("unexpected worker-protocol tag " +
                                        std::to_string(tag)));
    }
  }
}

// -------------------------------------------------------- in-thread hosts

void DrainWorkerFrames(Transport* world, uint32_t first, uint32_t last) {
  for (uint32_t tag = kTagWkLoad; tag < kTagWkEnd_; ++tag) {
    for (uint32_t rank = first; rank <= last; ++rank) {
      while (auto stale = world->TryRecv(rank, tag)) {
        world->buffer_pool().Release(std::move(stale->payload));
      }
    }
  }
}

std::shared_ptr<InThreadWorkers> InThreadWorkers::Share(Transport* world,
                                                        uint32_t num_workers) {
  if (world->has_remote_endpoints()) return nullptr;
  // Never destroyed, like the registry: sets may be released during any
  // teardown order.
  static std::mutex& mu = *new std::mutex();
  static auto& sets =
      *new std::map<Transport*, std::weak_ptr<InThreadWorkers>>();
  std::lock_guard<std::mutex> lock(mu);
  std::weak_ptr<InThreadWorkers>& slot = sets[world];
  if (std::shared_ptr<InThreadWorkers> live = slot.lock()) return live;
  // No host serves these mailboxes right now, so whatever waits in them
  // is a leftover of an earlier set's sessions.
  DrainWorkerFrames(world, 1, num_workers);
  std::shared_ptr<InThreadWorkers> spawned(
      new InThreadWorkers(world, num_workers));
  slot = spawned;
  return spawned;
}

InThreadWorkers::InThreadWorkers(Transport* world, uint32_t num_workers)
    : world_(world) {
  threads_.reserve(num_workers);
  for (uint32_t rank = 1; rank <= num_workers; ++rank) {
    threads_.emplace_back([this, rank] { Loop(rank); });
  }
}

InThreadWorkers::~InThreadWorkers() {
  stop_.store(true, std::memory_order_release);
  // A wake, not a frame: a lossy decorator may drop frames, never wakes.
  for (uint32_t rank = 1; rank <= threads_.size(); ++rank) {
    world_->Wake(rank);
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void InThreadWorkers::Loop(uint32_t rank) {
  Transport* world = world_;
  RemoteWorkerHost host(
      rank,
      [world, rank](uint32_t to, uint32_t tag, std::vector<uint8_t> payload) {
        return world->Send(rank, to, tag, std::move(payload));
      },
      &world->buffer_pool());
  for (;;) {
    Result<RtMessage> msg = world->Recv(rank, kNoDeadline);
    if (!msg.ok()) {
      // Drain-then-stop: Recv only comes back empty-handed once the
      // mailbox is empty, so the shutdown frames the last holder sent
      // just before releasing the set are consumed now instead of
      // greeting the next set's host. A wake left over from an earlier
      // set finds stop_ clear and is ignored.
      if (stop_.load(std::memory_order_acquire) || !world->healthy()) break;
      continue;
    }
    if (!IsWorkerTag(msg.value().tag)) continue;  // stray frame; not ours
    if (!host.OnFrame(msg.value().from, msg.value().tag,
                      std::move(msg.value().payload))
             .ok()) {
      break;  // the world is gone; nothing left to serve
    }
  }
}

}  // namespace grape
