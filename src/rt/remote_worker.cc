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

Status RemoteWorkerHost::HandleLoad(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  std::string app_name;
  uint8_t flags = 0;
  uint32_t compute_threads = 0;
  Status parse = dec.ReadString(&app_name);
  if (parse.ok()) parse = dec.ReadU8(&flags);
  if (parse.ok() && (flags & kWkLoadComputeThreads) != 0) {
    parse = dec.ReadU32(&compute_threads);
  }
  if (!parse.ok()) return EmitError(parse);
  // A load is an implicit reload: every run begins with its own
  // kTagWkLoad, and an engine whose previous run failed mid-phase (so no
  // shutdown was sent) must still be able to start over on the same
  // world. Anything buffered for the abandoned run dies with the old
  // server. (A flaky-duplicated load frame re-loads the identical state
  // and its second ack is ignored engine-side — harmless.)
  server_.reset();
  pending_.clear();
  inc_pending_ = false;
  ckpt_pending_ = false;
  mut_.reset();
  auto factory = WorkerAppRegistry::Global().Get(app_name);
  if (!factory.ok()) return EmitError(factory.status());
  std::unique_ptr<WorkerAppServerBase> server = (*factory)();
  check_monotonicity_ = (flags & kWkLoadCheckMonotonicity) != 0;
  server->SetComputeThreads(compute_threads);
  if (Status s = server->Load(dec, rank_, check_monotonicity_, flags);
      !s.ok()) {
    return EmitError(s);
  }
  server_ = std::move(server);
  WorkerAck ack;
  ack.phase = kWkPhaseLoad;
  ack.worker_pid = static_cast<uint64_t>(getpid());
  return EmitAck(ack);
}

Status RemoteWorkerHost::HandleQuery(const std::vector<uint8_t>& payload) {
  if (server_ == nullptr) {
    return EmitError(
        Status::FailedPrecondition("session query before a successful load"));
  }
  // Sessions only advance between completed runs, so anything still
  // buffered belongs to an abandoned round; clear it exactly as a reload
  // would, minus the fragment work.
  pending_.clear();
  inc_pending_ = false;
  ckpt_pending_ = false;
  mut_.reset();
  Decoder dec(payload);
  if (Status s = server_->ResetQuery(dec, check_monotonicity_); !s.ok()) {
    return EmitError(s);
  }
  WorkerAck ack;
  ack.phase = kWkPhaseLoad;
  ack.worker_pid = static_cast<uint64_t>(getpid());
  return EmitAck(ack);
}

Status RemoteWorkerHost::RunPhase(uint8_t phase, uint32_t round,
                                  bool incremental) {
  WorkerPhaseOutput out;
  Status s = phase == kWkPhasePEval ? server_->PEval(*pool_, &out)
                                    : server_->IncEval(incremental, *pool_,
                                                       &out);
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
  if (!inc_pending_ || server_ == nullptr) return Status::OK();

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
  server_->BeginApply();
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
      apply_status = server_->ApplyFrame(f.payload);
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
  if (server_ == nullptr) {
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
  if (!ckpt_pending_ || server_ == nullptr) return Status::OK();
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
  if (Status s = server_->EncodeCheckpoint(state); !s.ok()) {
    return EmitError(s);
  }
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
  // A restore replaces whatever partial state this host has, exactly like
  // a load does — the previous run attempt is dead by definition.
  server_.reset();
  pending_.clear();
  inc_pending_ = false;
  ckpt_pending_ = false;
  mut_.reset();

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
  check_monotonicity_ = (cmd.flags & kWkLoadCheckMonotonicity) != 0;
  server->SetComputeThreads(cmd.compute_threads);
  Decoder state(image->state);
  if (Status s =
          server->RestoreFromCheckpoint(state, rank_, check_monotonicity_);
      !s.ok()) {
    return EmitError(s);
  }
  server_ = std::move(server);
  for (CheckpointImage::PendingWireFrame& f : image->pending) {
    pending_.push_back(PendingFrame{f.from, f.tag, std::move(f.payload)});
  }
  WorkerAck ack;
  ack.phase = kWkPhaseRestore;
  ack.round = image->round;
  ack.worker_pid = static_cast<uint64_t>(getpid());
  return EmitAck(ack);
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
    enc.WriteVarint(answers[f].size());
    for (const MirrorLidEntry& e : answers[f]) enc.WriteU32(e.gid);
    for (const MirrorLidEntry& e : answers[f]) enc.WriteU32(e.lid);
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
  uint64_t count = 0;
  if (Status s = dec.ReadVarint(&count); !s.ok()) return EmitError(s);
  std::vector<MirrorLidEntry> answers(count);
  Status s = Status::OK();
  for (uint64_t i = 0; i < count && s.ok(); ++i) {
    s = dec.ReadU32(&answers[i].gid);
  }
  for (uint64_t i = 0; i < count && s.ok(); ++i) {
    s = dec.ReadU32(&answers[i].lid);
  }
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
  WkBuildAck ack;
  ack.token = b.token;
  ack.num_inner = b.fragment->num_inner();
  ack.num_local = b.fragment->num_local();
  ack.num_arcs = b.fragment->num_edges();
  ResidentFragmentStore::Global().Put(b.token, rank_, std::move(b.fragment));
  Encoder enc(pool_->Acquire());
  ack.EncodeTo(enc);
  build_.reset();
  return emit_(kCoordinatorRank, kTagWkBuildAck, enc.TakeBuffer());
}

// ------------------------------------------------- streaming mutation steps

Status RemoteWorkerHost::HandleMutate(const std::vector<uint8_t>& payload) {
  if (server_ == nullptr) {
    return EmitError(
        Status::FailedPrecondition("mutation before a successful load"));
  }
  if (inc_pending_ || ckpt_pending_) {
    return EmitError(Status::FailedPrecondition(
        "mutation command overlapping another command"));
  }
  // Peers that mutated first may already have buffered frames for this
  // session into mut_ — keep them; only errors reset the session.
  if (!mut_) mut_.emplace();
  Decoder dec(payload);
  Result<const Fragment*> frag =
      server_->MutateFragment(dec, check_monotonicity_);
  if (!frag.ok()) {
    mut_.reset();
    return EmitError(frag.status());
  }
  mut_->rebuilt = true;

  // Our rebuilt outer placements, one frame per peer (possibly empty —
  // the static n-1 expectation doubles as the exchange's barrier). The
  // peer answers each with the warm values for the gids we declared.
  const uint32_t n = server_->num_fragments();
  const FragmentId fid = rank_ - 1;
  auto answers = FragmentBuilder::MirrorAnswers(**frag);
  for (FragmentId f = 0; f < n; ++f) {
    if (f == fid) continue;
    Encoder enc(pool_->Acquire());
    enc.WriteVarint(answers[f].size());
    for (const MirrorLidEntry& e : answers[f]) enc.WriteU32(e.gid);
    for (const MirrorLidEntry& e : answers[f]) enc.WriteU32(e.lid);
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
  uint64_t count = 0;
  Status s = dec.ReadVarint(&count);
  std::vector<MirrorLidEntry> answers;
  if (s.ok() && count > dec.Remaining() / 8) {
    s = Status::Corruption("mutation mirror frame extends past end of buffer");
  }
  if (s.ok()) {
    answers.resize(count);
    for (uint64_t i = 0; i < count && s.ok(); ++i) {
      s = dec.ReadU32(&answers[i].gid);
    }
    for (uint64_t i = 0; i < count && s.ok(); ++i) {
      s = dec.ReadU32(&answers[i].lid);
    }
  }
  if (s.ok()) s = server_->ApplyMutMirror(from - 1, answers);
  Encoder vals(pool_->Acquire());
  if (s.ok()) s = server_->EncodeWarmValues(answers, vals);
  if (!s.ok()) {
    mut_.reset();
    return EmitError(s);
  }
  ++mut_->mirrors_seen;
  return emit_(from, kTagWkMutVals, vals.TakeBuffer());
}

Status RemoteWorkerHost::ApplyMutValsFrame(
    const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  if (Status s = server_->AbsorbWarmValues(dec); !s.ok()) {
    mut_.reset();
    return EmitError(s);
  }
  ++mut_->vals_seen;
  return Status::OK();
}

Status RemoteWorkerHost::HandleMutMirror(uint32_t from,
                                         std::vector<uint8_t> payload) {
  // Without a loaded server there is no session to serve: the frame is a
  // leftover of an abandoned mutation. Drop, like a stale build mirror.
  if (server_ == nullptr) {
    pool_->Release(std::move(payload));
    return Status::OK();
  }
  if (!mut_) mut_.emplace();
  if (!mut_->rebuilt) {
    mut_->early_mirrors.emplace_back(from, std::move(payload));
    return Status::OK();
  }
  GRAPE_RETURN_NOT_OK(ApplyMutMirrorFrame(from, payload));
  if (!mut_) return Status::OK();
  return MaybeFinishMutate();
}

Status RemoteWorkerHost::HandleMutVals(uint32_t from,
                                       std::vector<uint8_t> payload) {
  if (server_ == nullptr) {
    pool_->Release(std::move(payload));
    return Status::OK();
  }
  if (!mut_) mut_.emplace();
  if (!mut_->rebuilt) {
    // Defensive: an owner's reply follows our own mirror frame, which we
    // only send after rebuilding — but a flaky substrate's duplicate
    // could arrive any time, and buffering is always safe.
    mut_->early_vals.emplace_back(from, std::move(payload));
    return Status::OK();
  }
  GRAPE_RETURN_NOT_OK(ApplyMutValsFrame(payload));
  if (!mut_) return Status::OK();
  return MaybeFinishMutate();
}

Status RemoteWorkerHost::MaybeFinishMutate() {
  if (!mut_ || !mut_->rebuilt) return Status::OK();
  const uint32_t n = server_->num_fragments();
  if (mut_->mirrors_seen < n - 1 || mut_->vals_seen < n - 1) {
    return Status::OK();
  }
  WkBuildAck ack;
  if (Status s = server_->FinishMutation(&ack); !s.ok()) {
    mut_.reset();
    return EmitError(s);
  }
  mut_.reset();
  Encoder enc(pool_->Acquire());
  ack.EncodeTo(enc);
  return emit_(kCoordinatorRank, kTagWkMutateAck, enc.TakeBuffer());
}

Status RemoteWorkerHost::HandleIncStart(const std::vector<uint8_t>& payload) {
  if (server_ == nullptr) {
    return EmitError(Status::FailedPrecondition(
        "warm IncEval start before a successful load"));
  }
  if (mut_) {
    return EmitError(Status::FailedPrecondition(
        "warm IncEval start during an unfinished mutation"));
  }
  Decoder dec(payload);
  std::vector<VertexId> touched;
  if (Status s = dec.ReadPodVector(&touched); !s.ok()) return EmitError(s);
  if (Status s = server_->SeedTouched(touched); !s.ok()) return EmitError(s);
  return RunPhase(kWkPhaseIncEval, 1, true);
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
      if (server_ == nullptr) {
        return EmitError(Status::FailedPrecondition(
            "RunPEval before a successful load"));
      }
      return RunPhase(kWkPhasePEval, 1, true);
    }
    case kTagWkApply:
    case kTagWkDirect: {
      if (server_ == nullptr) {
        pool_->Release(std::move(payload));
        return EmitError(Status::FailedPrecondition(
            "parameter batch before a successful load"));
      }
      pending_.push_back(PendingFrame{from, tag, std::move(payload)});
      // At most one of the two can be armed: checkpoints only happen at
      // barriers, between a round's ack and the next round's command.
      if (ckpt_pending_) return MaybeCheckpoint();
      return MaybeRunIncEval();
    }
    case kTagWkRunIncEval: {
      if (server_ == nullptr) {
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
      if (server_ == nullptr) {
        return EmitError(Status::FailedPrecondition(
            "GetPartial before a successful load"));
      }
      Encoder enc(pool_->Acquire());
      GRAPE_RETURN_NOT_OK(server_->EncodePartial(enc));
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
    case kTagWkPing: {
      // Liveness probe: echo the payload back so the monitor can match
      // request and reply if it ever wants to.
      return emit_(kCoordinatorRank, kTagWkPong, std::move(payload));
    }
    case kTagWkShutdown: {
      pool_->Release(std::move(payload));
      // Retire the current worker but leave the host reloadable: engines
      // may run several queries over one world, and each run begins with
      // a fresh kTagWkLoad. shut_down_ only tells an in-thread host's
      // loop to exit; endpoint relay loops keep serving.
      server_.reset();
      pending_.clear();
      inc_pending_ = false;
      ckpt_pending_ = false;
      mut_.reset();
      shut_down_ = true;
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

InThreadWorkers::InThreadWorkers(Transport* world, uint32_t num_workers,
                                 bool enable) {
  if (!enable) return;
  threads_.reserve(num_workers);
  for (uint32_t rank = 1; rank <= num_workers; ++rank) {
    threads_.emplace_back([this, world, rank] { Loop(world, rank); });
  }
}

InThreadWorkers::~InThreadWorkers() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void InThreadWorkers::Loop(Transport* world, uint32_t rank) {
  RemoteWorkerHost host(
      rank,
      [world, rank](uint32_t to, uint32_t tag, std::vector<uint8_t> payload) {
        return world->Send(rank, to, tag, std::move(payload));
      },
      &world->buffer_pool());
  uint32_t idle = 0;
  for (;;) {
    std::optional<RtMessage> msg = world->TryRecv(rank);
    if (!msg) {
      // Drain-then-stop: only exit on the stop flag once the mailbox is
      // empty, so a shutdown frame sent just before our destructor is
      // consumed now instead of greeting (and instantly killing) the
      // next run's worker thread.
      if (stop_.load(std::memory_order_acquire) || !world->healthy()) break;
      IdleWait(&idle);
      continue;
    }
    idle = 0;
    if (!IsWorkerTag(msg->tag)) continue;  // stray frame; not ours
    if (!host.OnFrame(msg->from, msg->tag, std::move(msg->payload)).ok()) {
      break;  // the world is gone; nothing left to serve
    }
    if (host.shut_down()) break;
  }
}

}  // namespace grape
