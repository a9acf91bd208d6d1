#include "rt/distributed_load.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "rt/message.h"
#include "rt/remote_worker.h"
#include "rt/worker_protocol.h"
#include "util/logging.h"
#include "util/timer.h"

namespace grape {

namespace {

/// Process-global build token source: every distributed build gets a fresh
/// token, so stale frames of an abandoned build can never be mistaken for
/// the current one, and resident fragments of different builds coexist.
std::atomic<uint64_t>& TokenCounter() {
  static std::atomic<uint64_t> counter{1};
  return counter;
}

/// Collects one `want_tag` frame from every worker rank through the
/// shared await skeleton (AwaitWorkers), invoking `on_frame(fragment,
/// decoder)` for each. Edge- or mirror-bearing frames addressed to rank 0
/// are a protocol violation, counted into *data_frames for the purity
/// assertion.
template <typename OnFrame>
Status AwaitFromAllWorkers(Transport* world, uint32_t n, uint32_t want_tag,
                           int timeout_ms, const char* what,
                           uint64_t* data_frames, OnFrame on_frame) {
  return AwaitWorkers(
      world, n, n, timeout_ms, what,
      [&](uint32_t frag, bool replied, RtMessage& msg) -> Result<bool> {
        if (msg.tag == kTagWkExchange || msg.tag == kTagWkMirror) {
          ++*data_frames;  // never happens on a conformant world
          return false;
        }
        // Anything else is a stale frame of an earlier build or a
        // duplicate.
        if (msg.tag != want_tag || replied) return false;
        Decoder dec(msg.payload);
        GRAPE_RETURN_NOT_OK(on_frame(frag, dec));
        return true;
      });
}

/// Drains stale worker frames at rank 0, so they cannot fail this run's
/// awaits, holds the world's in-thread hosts, and mints a token.
DistributedGraphMeta OpenResident(Transport* world, uint32_t n,
                                  std::shared_ptr<InThreadWorkers>* hosts) {
  DrainWorkerFrames(world, 0, 0);
  *hosts = InThreadWorkers::Share(world, n);
  DistributedGraphMeta meta;
  meta.token = TokenCounter().fetch_add(1, std::memory_order_relaxed);
  meta.num_fragments = n;
  meta.shapes.resize(n);
  return meta;
}

/// Collects every worker's kTagWkBuildAck for meta->token into
/// meta->shapes.
Status AwaitShapes(Transport* world, int timeout_ms, const char* what,
                   DistributedGraphMeta* meta) {
  return AwaitFromAllWorkers(
      world, meta->num_fragments, kTagWkBuildAck, timeout_ms, what,
      &meta->coordinator_data_frames, [=](uint32_t frag, Decoder& dec) {
        WkBuildAck ack;
        GRAPE_RETURN_NOT_OK(WkBuildAck::DecodeFrom(dec, &ack));
        if (ack.token != meta->token) {
          return Status::Internal(std::string(what) + ": different token");
        }
        meta->shapes[frag] =
            FragmentShape{ack.num_inner, ack.num_local, ack.num_arcs};
        return Status::OK();
      });
}

}  // namespace

Result<DistributedGraphMeta> DistributedLoad(
    Transport* world, const DistributedLoadOptions& options) {
  if (world == nullptr) {
    return Status::InvalidArgument("distributed load requires a transport");
  }
  if (world->size() < 2) {
    return Status::InvalidArgument(
        "distributed load needs at least one worker rank");
  }
  const uint32_t n = world->size() - 1;

  uint8_t policy = kWkPartitionHash;
  if (options.partitioner == "explicit") {
    policy = kWkPartitionExplicit;
    if (options.assignment.empty()) {
      return Status::InvalidArgument(
          "explicit partitioning needs a non-empty assignment");
    }
    for (FragmentId f : options.assignment) {
      if (f >= n) {
        return Status::InvalidArgument(
            "assignment references fragment " + std::to_string(f) +
            " in a world of " + std::to_string(n));
      }
    }
  } else if (options.partitioner != "hash") {
    return Status::InvalidArgument("unknown distributed partitioner '" +
                                   options.partitioner +
                                   "' (hash|explicit)");
  }

  // Shard ranges: pure file metadata — rank 0 reads at most one line per
  // cut point to align on a boundary, never an edge.
  std::vector<ShardRange> ranges;
  GRAPE_ASSIGN_OR_RETURN(ranges, ComputeShardRanges(options.path, n));

  std::shared_ptr<InThreadWorkers> in_thread;
  DistributedGraphMeta meta = OpenResident(world, n, &in_thread);
  meta.directed = options.format.directed;

  // Phase 1: shard scan. Every worker reads its byte range and reports
  // (max gid, edge count); no edge travels here.
  WallTimer shard_timer;
  for (uint32_t i = 0; i < n; ++i) {
    WkShardCommand cmd;
    cmd.token = meta.token;
    cmd.path = options.path;
    cmd.offset = ranges[i].offset;
    cmd.length = ranges[i].length;
    cmd.format = options.format;
    cmd.num_fragments = n;
    cmd.policy = policy;
    if (policy == kWkPartitionExplicit) cmd.assignment = options.assignment;
    Encoder enc(world->buffer_pool().Acquire());
    cmd.EncodeTo(enc);
    GRAPE_RETURN_NOT_OK(
        world->Send(kCoordinatorRank, i + 1, kTagWkShard, enc.TakeBuffer()));
  }
  VertexId total = 0;
  GRAPE_RETURN_NOT_OK(AwaitFromAllWorkers(
      world, n, kTagWkShardAck, options.timeout_ms, "shard acks",
      &meta.coordinator_data_frames, [&](uint32_t frag, Decoder& dec) {
        WkShardAck ack;
        GRAPE_RETURN_NOT_OK(WkShardAck::DecodeFrom(dec, &ack));
        if (ack.token != meta.token) {
          return Status::Internal("shard ack for a different build");
        }
        total = std::max(total, ack.max_vertex_plus1);
        meta.total_edges += ack.num_edges;
        (void)frag;
        return Status::OK();
      }));
  meta.shard_seconds = shard_timer.ElapsedSeconds();

  if (policy == kWkPartitionExplicit) {
    if (total > options.assignment.size()) {
      return Status::InvalidArgument(
          "assignment covers " + std::to_string(options.assignment.size()) +
          " vertices but the input names vertex " + std::to_string(total - 1));
    }
    // Like LoadEdgeListFile + Partitioner: the vertex universe is the
    // assignment's domain, padding isolated vertices past the max gid.
    total = static_cast<VertexId>(options.assignment.size());
  }
  meta.total_vertices = total;
  if (options.verbose) {
    GRAPE_LOG(kInfo) << "distributed load: " << meta.total_edges
                     << " edges across " << n << " shards, " << total
                     << " vertices (" << meta.shard_seconds << "s scan)";
  }

  // Phase 2: broadcast the vertex count; workers exchange edges, assemble,
  // resolve mirrors peer-to-peer, and ack their fragment shapes.
  WallTimer build_timer;
  for (uint32_t i = 0; i < n; ++i) {
    Encoder enc(world->buffer_pool().Acquire());
    enc.WriteU64(meta.token);
    enc.WriteU32(total);
    GRAPE_RETURN_NOT_OK(
        world->Send(kCoordinatorRank, i + 1, kTagWkBuild, enc.TakeBuffer()));
  }
  GRAPE_RETURN_NOT_OK(
      AwaitShapes(world, options.timeout_ms, "build acks", &meta));
  meta.build_seconds = build_timer.ElapsedSeconds();
  if (options.verbose) {
    GRAPE_LOG(kInfo) << "distributed load: fragments resident ("
                     << meta.build_seconds << "s exchange+assembly)";
  }
  return meta;
}

Result<DistributedGraphMeta> DepositFragments(Transport* world,
                                              const FragmentedGraph& fg,
                                              int timeout_ms) {
  const uint32_t n = fg.num_fragments();
  if (world == nullptr || world->size() != n + 1) {
    return Status::InvalidArgument("a deposit needs num_fragments()+1 ranks");
  }
  std::shared_ptr<InThreadWorkers> in_thread;
  DistributedGraphMeta meta = OpenResident(world, n, &in_thread);
  meta.total_vertices = fg.total_vertices;
  meta.directed = fg.directed;
  Status s = Status::OK();
  for (uint32_t i = 0; i < n && s.ok(); ++i) {
    Encoder enc(world->buffer_pool().Acquire());
    enc.WriteU64(meta.token);
    fg.fragments[i].EncodeTo(enc);
    s = world->Send(kCoordinatorRank, i + 1, kTagWkDeposit, enc.TakeBuffer());
  }
  if (s.ok()) s = AwaitShapes(world, timeout_ms, "deposit acks", &meta);
  if (!s.ok()) {
    ReleaseResident(world, meta.token);
    return s;
  }
  return meta;
}

void ReleaseResident(Transport* world, uint64_t token) {
  for (uint32_t rank = 1; rank < world->size(); ++rank) {
    Encoder enc(world->buffer_pool().Acquire());
    enc.WriteU64(token);
    // Best effort: a dead endpoint took its store with it.
    (void)world->Send(kCoordinatorRank, rank, kTagWkRelease,
                      enc.TakeBuffer());
  }
  ResidentFragmentStore::Global().Erase(token);
}

}  // namespace grape
