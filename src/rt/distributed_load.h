#ifndef GRAPE_RT_DISTRIBUTED_LOAD_H_
#define GRAPE_RT_DISTRIBUTED_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/io.h"
#include "graph/types.h"
#include "partition/fragment.h"
#include "rt/transport.h"
#include "util/result.h"

namespace grape {

/// Options for a distributed graph build (see DistributedLoad below).
struct DistributedLoadOptions {
  /// Edge-list file, readable by every worker endpoint (the protocol ships
  /// byte ranges, not bytes — shared filesystem or a per-host copy).
  std::string path;
  EdgeListFormat format;
  /// Vertex-ownership policy: "hash" (SplitMix64(gid) % n, computed
  /// independently by every worker — nothing is shipped) or "explicit"
  /// (the `assignment` below rides inside each shard command; use for
  /// METIS-style partitions computed offline).
  std::string partitioner = "hash";
  /// gid -> fragment, sized total vertices. "explicit" only.
  std::vector<FragmentId> assignment;
  /// Budget for each protocol phase (shard scan, exchange+assembly)
  /// before the coordinator gives up with Unavailable.
  int timeout_ms = 120000;
  bool verbose = false;
};

/// Shape of one remotely assembled fragment, reported by its worker's
/// build ack. Everything the coordinator needs to size its routing
/// batches — and nothing more.
struct FragmentShape {
  LocalId num_inner = 0;
  LocalId num_local = 0;
  uint64_t num_arcs = 0;
};

/// What the coordinator holds after a distributed build or a deposit:
/// metadata only. The fragments themselves are resident in the worker
/// endpoints' ResidentFragmentStore under `token`, keyed additionally by
/// rank.
struct DistributedGraphMeta {
  uint64_t token = 0;
  FragmentId num_fragments = 0;
  VertexId total_vertices = 0;
  bool directed = true;
  /// Indexed by fragment id.
  std::vector<FragmentShape> shapes;
  /// Edge lines parsed across all shards (before ownership routing).
  uint64_t total_edges = 0;
  /// Load-phase timings: shard scan (everyone reading its byte range) and
  /// exchange + assembly + mirror resolution.
  double shard_seconds = 0;
  double build_seconds = 0;
  /// Edge- or mirror-bearing frames the coordinator received during the
  /// build. The protocol routes all of them worker-to-worker, so this is
  /// 0 on every conformant run — tests assert it (coordinator purity).
  uint64_t coordinator_data_frames = 0;
};

/// Builds one fragment per worker rank from `options.path` without ever
/// materializing the graph at rank 0 (the caller). Protocol
/// (rt/worker_protocol.h, kTagWkShard..kTagWkBuildAck):
///
///   1. rank 0 computes line-aligned byte ranges (ComputeShardRanges —
///      metadata only, no edge is read here) and sends each worker its
///      shard descriptor; workers scan their ranges and ack (max gid,
///      edge count).
///   2. rank 0 folds the acks into the global vertex count and broadcasts
///      it; each worker derives the ownership tables locally, streams
///      every scanned edge to the owners of its endpoints, assembles its
///      fragment from what it received (FragmentBuilder::AssembleLocal),
///      exchanges mirror placements peer-to-peer, deposits the finished
///      fragment into its process-local ResidentFragmentStore, and acks
///      its shape.
///
/// Fragments are bit-identical to a coordinator-side
/// FragmentBuilder::Build over LoadEdgeListFile(path) with the same
/// assignment — both paths run the same two build halves, and the
/// exchange key (file byte offset) restores whole-file edge order before
/// assembly (tests/distributed_load_test.cc).
///
/// `world` must be sized n+1 (rank 0 = this caller); on inproc backends
/// the function spawns in-thread workers for the duration of the build.
Result<DistributedGraphMeta> DistributedLoad(
    Transport* world, const DistributedLoadOptions& options);

/// Coordinator loading: ships each fragment of `fg` to its worker once
/// (kTagWkDeposit, acked with its shape) and returns the metadata a
/// distributed build would, under a fresh token (timings and total_edges
/// stay zero). The caller owns the deposit: ReleaseResident frees it, as
/// does a failure here. `world` must be sized fg.num_fragments()+1.
Result<DistributedGraphMeta> DepositFragments(Transport* world,
                                              const FragmentedGraph& fg,
                                              int timeout_ms = 120000);

/// Frees the fragments resident under `token`: a fire-and-forget
/// kTagWkRelease to every worker, and an erase from this process's store
/// (the workers' own on inproc). Engines still attached to the token fail
/// their next cold load with NotFound.
void ReleaseResident(Transport* world, uint64_t token);

}  // namespace grape

#endif  // GRAPE_RT_DISTRIBUTED_LOAD_H_
