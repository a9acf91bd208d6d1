// Quickstart: the complete GRAPE workflow in one file.
//
//   1. Build (or load) a graph.
//   2. Pick a partition strategy and fragment the graph ("play" panel).
//   3. Run a plugged-in PIE program — here SSSP, the paper's Example 1 —
//      and inspect the answer plus the engine's execution metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/quickstart [--transport=inproc|tcp]
//                      [--compute=local|remote]
//                      [--load=coordinator|distributed]
//                      [--ckpt-every=N] [--ckpt-dir=DIR]
//
// --transport picks the message-passing substrate: "inproc" (default)
// keeps every rank in this process; "tcp" forks one endpoint process per
// rank and meshes them over loopback TCP (or joins a --hosts cluster) —
// same answer, same communication counters, real process boundaries.
//
// --compute picks where PEval/IncEval execute: "local" (default) runs
// them inline in this (rank-0) process; "remote" serializes each
// fragment to its rank's worker host — the endpoint process on
// tcp, an in-process worker thread on inproc — which computes and
// ships back messages and a final partial. Same answer, same counters,
// real compute placement.
//
// --load picks how the fragments come to exist: "coordinator" (default)
// loads and partitions the whole graph in this process; "distributed"
// writes the graph to an edge-list file and rebuilds it in place — every
// worker reads its own byte-range shard and assembles its own fragment,
// while rank 0 orchestrates without ever materializing the graph
// (requires --compute=remote; the file path must be readable by every
// endpoint, which auto-spawned local worlds always satisfy).
//
// --ckpt-every=N checkpoints worker state every N supersteps so a
// SIGKILLed worker can be respawned and the run replayed bit-identically
// from the last completed checkpoint (requires --compute=remote).
// Checkpoints live in coordinator memory by default; --ckpt-dir=DIR
// writes one file per worker under DIR instead.
//
// --chaos-kill-rank=R demonstrates recovery: SIGKILL rank R's endpoint
// process from the second superstep's boundary, then let the engine
// detect the death, respawn the world, and finish — the printed
// distances must match an unharmed run. The kill fires from inside the
// run because the whole query takes milliseconds: no external kill can
// land mid-superstep reliably (this is what CI's chaos job uses;
// requires --ckpt-every with a forking transport).
//
// Multi-machine tcp (the world here is 4 ranks: 3 workers + P0):
//   machine0$ ./build/quickstart --transport=tcp --rank=0
//                --hosts=machine0:9000,machine1:0,machine2:0,machine3:0
//   machineN$ ./build/quickstart --transport=tcp --rank=N --hosts=...same...
// Rank 0 runs the engine and the rendezvous listener at hosts[0]; every
// other rank is a pure endpoint process that joins, relays frames, and
// exits when rank 0 finishes. Without --hosts, tcp auto-spawns all
// endpoints locally on loopback.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "rt/cluster.h"
#include "rt/distributed_load.h"
#include "rt/transport.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace grape;

  const std::vector<std::string> kFlags = ClusterSpec::WithFlagNames(
      {"transport", "compute", "load", "ckpt-every", "ckpt-dir",
       "chaos-kill-rank"});
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, kFlags); !s.ok()) {
    std::fprintf(stderr, "flags: %s\n", s.ToString().c_str());
    return 2;
  }
  const std::string transport = flags.GetString("transport", "inproc");
  const std::string compute = flags.GetString("compute", "local");
  if (compute != "local" && compute != "remote") {
    std::fprintf(stderr, "--compute must be local or remote\n");
    return 2;
  }
  const std::string load = flags.GetString("load", "coordinator");
  if (load != "coordinator" && load != "distributed") {
    std::fprintf(stderr, "--load must be coordinator or distributed\n");
    return 2;
  }
  if (load == "distributed" && compute != "remote") {
    std::fprintf(stderr,
                 "--load=distributed leaves rank 0 without fragments, so "
                 "PEval/IncEval must run on the workers: pass "
                 "--compute=remote\n");
    return 2;
  }
  const int64_t ckpt_every = flags.GetInt("ckpt-every", 0);
  const std::string ckpt_dir = flags.GetString("ckpt-dir", "");
  if (ckpt_every < 0) {
    std::fprintf(stderr, "--ckpt-every must be >= 0\n");
    return 2;
  }
  if (ckpt_every > 0 && compute != "remote") {
    std::fprintf(stderr,
                 "--ckpt-every checkpoints worker state, so the workers "
                 "must own the state: pass --compute=remote\n");
    return 2;
  }
  const int64_t chaos_kill_rank = flags.GetInt("chaos-kill-rank", -1);
  if (chaos_kill_rank >= 0 &&
      (ckpt_every <= 0 || transport == "inproc")) {
    std::fprintf(stderr,
                 "--chaos-kill-rank kills an endpoint process, so it needs "
                 "--ckpt-every=N and the forking tcp transport\n");
    return 2;
  }
  auto cluster = ClusterSpec::FromFlags(flags);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n",
                 cluster.status().ToString().c_str());
    return 2;
  }
  // Worker hosts (endpoint processes, incl. the ones forked at transport
  // creation) resolve PIE programs by name: register before anything can
  // fork or serve. Idempotent and cheap, so done unconditionally.
  RegisterBuiltinWorkerApps();
  // With --rank > 0 this process is a cluster endpoint, not the engine:
  // it serves its rank's place in the tcp mesh until rank 0 finishes —
  // and, under --compute=remote, runs its rank's PEval/IncEval.
  int endpoint_exit = 0;
  if (RanAsClusterEndpoint(*cluster, transport, &endpoint_exit)) {
    return endpoint_exit;
  }

  // A tiny weighted road map: 8 intersections, bidirectional streets.
  GraphBuilder builder(/*directed=*/true);
  const struct {
    VertexId a, b;
    double w;
  } streets[] = {{0, 1, 4}, {0, 2, 1}, {2, 1, 2}, {1, 3, 5}, {2, 3, 8},
                 {3, 4, 3}, {4, 5, 2}, {3, 5, 7}, {5, 6, 1}, {6, 7, 2},
                 {4, 7, 6}};
  for (const auto& s : streets) {
    builder.AddEdge(s.a, s.b, s.w);
    builder.AddEdge(s.b, s.a, s.w);
  }
  auto graph = std::move(builder).Build();
  if (!graph.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }

  // Partition onto 3 workers with the multilevel (METIS-style) strategy.
  auto partitioner = MakePartitioner("metis");
  auto assignment = (*partitioner)->Partition(*graph, 3);

  // The substrate: 3 workers + coordinator P0 = 4 ranks.
  auto world = MakeClusterTransport(transport, 4, *cluster);
  if (!world.ok()) {
    std::fprintf(stderr, "transport: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  EngineOptions options;
  options.transport = world->get();
  if (compute == "remote") options.remote_app = "sssp";
  options.checkpoint.every_k = static_cast<uint32_t>(ckpt_every);
  options.checkpoint.dir = ckpt_dir;
  bool chaos_killed = false;
  if (chaos_kill_rank >= 0) {
    Transport* tp = world->get();
    options.on_superstep = [&chaos_killed, tp,
                            chaos_kill_rank](uint32_t superstep) {
      if (chaos_killed || superstep < 2) return;
      auto pids = tp->endpoint_process_ids();
      if (static_cast<size_t>(chaos_kill_rank) < pids.size() &&
          pids[static_cast<size_t>(chaos_kill_rank)] > 0) {
        ::kill(static_cast<pid_t>(pids[static_cast<size_t>(chaos_kill_rank)]),
               SIGKILL);
        chaos_killed = true;
      }
    };
  }

  // "Plug": SsspApp wraps sequential Dijkstra (PEval) and incremental
  // shortest paths (IncEval) with a min aggregate — nothing else.
  // "Play": run the fixed-point computation for a query.
  Result<SsspOutput> result = Status::Internal("query never ran");
  EngineMetrics metrics;
  if (load == "distributed") {
    // Round-trip the street map through an edge-list file so every
    // worker can read its own shard and assemble its own fragment —
    // rank 0 ships only the partition assignment, never the graph.
    const std::string path =
        "/tmp/grape_quickstart_streets_" + std::to_string(getpid()) + ".txt";
    if (Status s = SaveEdgeListFile(*graph, path); !s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
      return 1;
    }
    DistributedLoadOptions dopt;
    dopt.path = path;
    dopt.format.directed = true;
    dopt.format.has_weight = true;
    dopt.format.has_label = true;
    dopt.partitioner = "explicit";
    dopt.assignment = *assignment;
    auto meta = DistributedLoad(world->get(), dopt);
    if (!meta.ok()) {
      std::fprintf(stderr, "distributed load: %s\n",
                   meta.status().ToString().c_str());
      std::remove(path.c_str());
      return 1;
    }
    std::printf(
        "distributed load: %llu edges sharded to 3 workers "
        "(shard %.3fs, build %.3fs, coordinator data frames: %llu)\n\n",
        (unsigned long long)meta->total_edges, meta->shard_seconds,
        meta->build_seconds, (unsigned long long)meta->coordinator_data_frames);
    GrapeEngine<SsspApp> engine(*meta, options);
    result = engine.Run(SsspQuery{0});
    metrics = engine.metrics();
    std::remove(path.c_str());
  } else {
    auto fragments = FragmentBuilder::Build(*graph, *assignment, 3);
    if (!fragments.ok()) {
      std::fprintf(stderr, "fragmentation failed: %s\n",
                   fragments.status().ToString().c_str());
      return 1;
    }
    GrapeEngine<SsspApp> engine(*fragments, SsspApp{}, options);
    result = engine.Run(SsspQuery{0});
    metrics = engine.metrics();
  }
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("shortest distances from intersection 0:\n");
  for (VertexId v = 0; v < result->dist.size(); ++v) {
    std::printf("  0 -> %u : %.1f\n", v, result->dist[v]);
  }
  std::printf("\ntransport: %s, compute: %s, load: %s\n",
              (*world)->name().c_str(), compute.c_str(), load.c_str());
  std::printf("engine: %s\n", metrics.ToString().c_str());
  std::printf("rounds: PEval + %u IncEval supersteps to the fixed point\n",
              metrics.supersteps - 1);
  return 0;
}
