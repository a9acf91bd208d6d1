// grape_cli — the demo's plug/play console as a command-line tool.
//
//   grape_cli --graph=<kind> [--scale=N|--rows=R --cols=C]
//             [--partitioner=<name>|auto] --workers=N
//             [--load=coordinator|distributed]
//             [--ckpt-every=N] [--ckpt-dir=DIR]
//             <app> [k=v ...]
//
// Graph kinds: rmat, grid, er, community, labeled, social, ratings, or a
// path to an edge-list file (whitespace "src dst [weight] [label]").
// Apps: any registered query class (sssp, bfs, cc, pagerank, sim, dualsim,
// subiso, keyword, cf, gpar, triangle, kcore). Trailing k=v pairs are the
// query arguments.
//
// --load=distributed rebuilds the graph in place: every worker endpoint
// reads its own byte-range shard of the edge-list file and assembles its
// own fragment while rank 0 orchestrates without materializing the graph.
// Compute is remote by construction, so only the wire-codable apps (sssp,
// bfs, cc, pagerank) qualify. When --graph is a file and the partitioner
// is hash (the distributed default), rank 0 never reads the input at all —
// this is the path that scales past one machine's RAM; generated graphs
// and explicit partitioners still materialize once at rank 0 to write the
// file or compute the assignment.
//
// --ckpt-every=N checkpoints worker state every N supersteps so a killed
// worker endpoint can be respawned and the run replayed bit-identically
// from the last completed checkpoint. Checkpointing needs the workers to
// own the state, so it requires --load=distributed (remote compute).
// Images live in rank 0's memory unless --ckpt-dir=DIR persists one file
// per worker under DIR.
//
// Parallelism is per fragment: each worker runs its fragment's PEval and
// IncEval sequentially, so --workers=N is the parallelism knob.
//
// Examples:
//   grape_cli --graph=grid --rows=200 --cols=200 --workers=8 sssp source=0
//   grape_cli --graph=social --scale=15 --workers=4 gpar item=32768
//   grape_cli --graph=labeled --workers=8 sim pattern=path3 l0=1 l1=2 l2=3
//   grape_cli --graph=/data/edges.txt --weighted=true --workers=8
//             --load=distributed --transport=tcp sssp source=0

#include <unistd.h>

#include <cstdio>
#include <string>

#include "apps/register_apps.h"
#include "core/app_registry.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "partition/advisor.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "rt/cluster.h"
#include "rt/distributed_load.h"
#include "rt/transport.h"
#include "partition/quality.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace grape {
namespace {

bool IsGeneratorKind(const std::string& kind) {
  return kind == "rmat" || kind == "grid" || kind == "er" ||
         kind == "community" || kind == "labeled" || kind == "social" ||
         kind == "ratings";
}

Result<Graph> MakeGraph(const FlagParser& flags) {
  const std::string kind = flags.GetString("graph", "rmat");
  const auto scale = static_cast<uint32_t>(flags.GetInt("scale", 13));
  const uint64_t seed = flags.GetInt("seed", 42);
  if (kind == "rmat") {
    RMatOptions opts;
    opts.scale = scale;
    opts.edge_factor =
        static_cast<uint32_t>(flags.GetInt("edge_factor", 12));
    opts.seed = seed;
    return GenerateRMat(opts);
  }
  if (kind == "grid") {
    return GenerateGridRoad(
        static_cast<uint32_t>(flags.GetInt("rows", 200)),
        static_cast<uint32_t>(flags.GetInt("cols", 200)), seed);
  }
  if (kind == "er") {
    VertexId n = 1u << scale;
    return GenerateErdosRenyi(
        n, n * static_cast<size_t>(flags.GetInt("edge_factor", 8)),
        /*directed=*/true, seed);
  }
  if (kind == "community") {
    CommunityGraphOptions opts;
    opts.num_vertices = 1u << scale;
    opts.seed = seed;
    return GenerateCommunityGraph(opts);
  }
  if (kind == "labeled") {
    LabeledGraphOptions opts;
    opts.scale = scale;
    opts.num_vertex_labels =
        static_cast<uint32_t>(flags.GetInt("labels", 8));
    opts.seed = seed;
    return GenerateLabeledGraph(opts);
  }
  if (kind == "social") {
    SocialGraphOptions opts;
    opts.num_persons = 1u << scale;
    opts.seed = seed;
    return GenerateSocialGraph(opts);
  }
  if (kind == "ratings") {
    BipartiteOptions opts;
    opts.num_users = 1u << scale;
    opts.seed = seed;
    return GenerateBipartiteRatings(opts);
  }
  // Otherwise: treat as an edge-list file path.
  EdgeListFormat format;
  format.directed = flags.GetBool("directed", true);
  format.has_weight = flags.GetBool("weighted", false);
  format.has_label = flags.GetBool("edge_labels", false);
  return LoadEdgeListFile(kind, format);
}

/// The --load=distributed path: every worker endpoint reads its own
/// byte-range shard and assembles its own fragment in place; rank 0
/// orchestrates and then runs the pure coordinator role (compute is
/// remote by construction). With a file input and the hash partitioner,
/// rank 0 touches only shard metadata — the graph never exists whole in
/// any single process.
int RunDistributed(const FlagParser& flags, const std::string& app_name,
                   const QueryArgs& args, const ClusterSpec& cluster) {
  auto app = AppRegistry::Global().Get(app_name);
  if (!app.ok()) {
    std::fprintf(stderr, "%s\n", app.status().ToString().c_str());
    return 1;
  }
  if (!app->run_distributed) {
    std::fprintf(stderr,
                 "app '%s' is not wire-codable, so it cannot run on "
                 "distributed-built fragments; pick one of sssp, bfs, cc, "
                 "pagerank — or drop --load=distributed\n",
                 app_name.c_str());
    return 2;
  }
  const auto workers = static_cast<FragmentId>(flags.GetInt("workers", 8));
  // "auto" resolves to hash here: it is the one strategy every worker can
  // derive in place from pure arithmetic, with nothing shipped.
  std::string strategy = flags.GetString("partitioner", "auto");
  if (strategy == "auto") strategy = "hash";

  const std::string kind = flags.GetString("graph", "rmat");
  DistributedLoadOptions dopt;
  std::string temp_path;
  const bool pure = !IsGeneratorKind(kind) && strategy == "hash";
  if (pure) {
    dopt.path = kind;
    dopt.format.directed = flags.GetBool("directed", true);
    dopt.format.has_weight = flags.GetBool("weighted", false);
    dopt.format.has_label = flags.GetBool("edge_labels", false);
    dopt.partitioner = "hash";
    std::printf("graph: %s (sharded; rank 0 reads no edges)\n", kind.c_str());
  } else {
    // A generated graph (or a non-hash partitioner) materializes once at
    // rank 0 — to write the shard file, or to compute the assignment.
    auto graph = MakeGraph(flags);
    if (!graph.ok()) {
      std::fprintf(stderr, "graph: %s\n",
                   graph.status().ToString().c_str());
      return 1;
    }
    if (IsGeneratorKind(kind)) {
      temp_path = "/tmp/grape_cli_" + std::to_string(getpid()) + ".txt";
      if (Status s = SaveEdgeListFile(*graph, temp_path); !s.ok()) {
        std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
        return 1;
      }
      dopt.path = temp_path;
      dopt.format.directed = graph->is_directed();
      dopt.format.has_weight = true;
      dopt.format.has_label = true;
    } else {
      dopt.path = kind;
      dopt.format.directed = flags.GetBool("directed", true);
      dopt.format.has_weight = flags.GetBool("weighted", false);
      dopt.format.has_label = flags.GetBool("edge_labels", false);
    }
    if (strategy == "hash") {
      dopt.partitioner = "hash";
    } else {
      auto partitioner = MakePartitioner(strategy);
      if (!partitioner.ok()) {
        std::fprintf(stderr, "%s\n",
                     partitioner.status().ToString().c_str());
        return 1;
      }
      auto assignment = (*partitioner)->Partition(*graph, workers);
      if (!assignment.ok()) {
        std::fprintf(stderr, "%s\n",
                     assignment.status().ToString().c_str());
        return 1;
      }
      dopt.partitioner = "explicit";
      dopt.assignment = std::move(*assignment);
    }
    GraphProfile profile = ProfileGraph(*graph);
    std::printf("graph: %s\n", profile.ToString().c_str());
  }
  std::printf("partitioner: %s (distributed build)\n", strategy.c_str());

  const std::string transport = flags.GetString("transport", "inproc");
  auto world = MakeClusterTransport(transport, workers + 1, cluster);
  if (!world.ok()) {
    std::fprintf(stderr, "transport: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  WallTimer load_timer;
  auto meta = DistributedLoad(world->get(), dopt);
  if (!meta.ok()) {
    std::fprintf(stderr, "distributed load: %s\n",
                 meta.status().ToString().c_str());
    if (!temp_path.empty()) std::remove(temp_path.c_str());
    return 1;
  }
  std::printf(
      "distributed load: %u fragments, %u vertices, %llu edge lines in "
      "%.2fs (shard %.2fs + build %.2fs; coordinator data frames: %llu)\n",
      meta->num_fragments, meta->total_vertices,
      static_cast<unsigned long long>(meta->total_edges),
      load_timer.ElapsedSeconds(), meta->shard_seconds, meta->build_seconds,
      static_cast<unsigned long long>(meta->coordinator_data_frames));

  EngineOptions options;
  options.transport = world->get();
  options.remote_app = app_name;
  options.checkpoint.every_k =
      static_cast<uint32_t>(flags.GetInt("ckpt-every", 0));
  options.checkpoint.dir = flags.GetString("ckpt-dir", "");
  std::printf("running '%s' (%s) on %u workers over %s (remote compute)...\n",
              app->name.c_str(), app->description.c_str(), workers,
              transport.c_str());
  EngineMetrics metrics;
  auto answer = app->run_distributed(*meta, args, options, &metrics);
  if (!temp_path.empty()) std::remove(temp_path.c_str());
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    return 1;
  }
  std::printf("\nanswer : %s\n", answer->c_str());
  std::printf("engine : %s\n", metrics.ToString().c_str());
  if (metrics.rounds.size() > 1) {
    std::printf("rounds :");
    for (const RoundMetrics& r : metrics.rounds) {
      std::printf(" %llu",
                  static_cast<unsigned long long>(r.updated_params));
    }
    std::printf("  (parameter updates per superstep)\n");
  }
  return 0;
}

int Run(int argc, char** argv) {
  const std::vector<std::string> kFlags = ClusterSpec::WithFlagNames(
      {"graph", "rows", "cols", "scale", "edge_factor", "seed", "directed",
       "weighted", "labels", "edge_labels", "workers", "partitioner",
       "transport", "load", "ckpt-every", "ckpt-dir"});
  FlagParser flags;
  Status parsed = flags.Parse(argc, argv, kFlags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  RegisterBuiltinApps();

  auto cluster = ClusterSpec::FromFlags(flags);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n",
                 cluster.status().ToString().c_str());
    return 2;
  }
  // A non-zero rank is a pure tcp endpoint process: no graph, no app —
  // it joins the mesh at hosts[0] and relays frames until rank 0 is done.
  int endpoint_exit = 0;
  if (RanAsClusterEndpoint(*cluster, flags.GetString("transport", "inproc"),
                           &endpoint_exit)) {
    return endpoint_exit;
  }

  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: grape_cli --graph=<kind> [--workers=N] "
                         "[--transport=inproc|tcp] "
                         "[--load=coordinator|distributed] "
                         "[--ckpt-every=N --ckpt-dir=DIR] "
                         "[--rank=N --hosts=a:p,b:p,...] "
                         "<app> [k=v ...]\nregistered apps:");
    for (const std::string& name : AppRegistry::Global().Names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::string app_name = flags.positional()[0];
  QueryArgs args = ParseQueryArgs({flags.positional().begin() + 1,
                                   flags.positional().end()});

  const std::string load = flags.GetString("load", "coordinator");
  if (load != "coordinator" && load != "distributed") {
    std::fprintf(stderr, "--load must be coordinator or distributed\n");
    return 2;
  }
  if (flags.GetInt("ckpt-every", 0) > 0 && load != "distributed") {
    std::fprintf(stderr,
                 "--ckpt-every checkpoints worker state, so the workers "
                 "must own the state: pass --load=distributed\n");
    return 2;
  }
  if (load == "distributed") {
    return RunDistributed(flags, app_name, args, *cluster);
  }

  auto graph = MakeGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  GraphProfile profile = ProfileGraph(*graph);
  std::printf("graph: %s\n", profile.ToString().c_str());

  std::string strategy = flags.GetString("partitioner", "auto");
  if (strategy == "auto") {
    PartitionAdvice advice = AdvisePartitioner(profile);
    strategy = advice.strategy;
    std::printf("partitioner: %s (auto: %s)\n", strategy.c_str(),
                advice.rationale.c_str());
  }
  const auto workers = static_cast<FragmentId>(flags.GetInt("workers", 8));

  auto partitioner = MakePartitioner(strategy);
  if (!partitioner.ok()) {
    std::fprintf(stderr, "%s\n", partitioner.status().ToString().c_str());
    return 1;
  }
  WallTimer prep_timer;
  auto assignment = (*partitioner)->Partition(*graph, workers);
  if (!assignment.ok()) {
    std::fprintf(stderr, "%s\n", assignment.status().ToString().c_str());
    return 1;
  }
  PartitionQuality quality = EvaluatePartition(*graph, *assignment, workers);
  auto fg = FragmentBuilder::Build(*graph, *assignment, workers);
  if (!fg.ok()) {
    std::fprintf(stderr, "%s\n", fg.status().ToString().c_str());
    return 1;
  }
  std::printf("partition: %s in %.2fs\n", quality.ToString().c_str(),
              prep_timer.ElapsedSeconds());

  auto app = AppRegistry::Global().Get(app_name);
  if (!app.ok()) {
    std::fprintf(stderr, "%s\n", app.status().ToString().c_str());
    return 1;
  }
  const std::string transport = flags.GetString("transport", "inproc");
  auto world = MakeClusterTransport(transport, workers + 1, *cluster);
  if (!world.ok()) {
    std::fprintf(stderr, "transport: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  EngineOptions options;
  options.transport = world->get();

  std::printf("running '%s' (%s) on %u workers over %s...\n",
              app->name.c_str(), app->description.c_str(), workers,
              transport.c_str());
  EngineMetrics metrics;
  auto answer = app->run(*fg, args, options, &metrics);
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    return 1;
  }
  std::printf("\nanswer : %s\n", answer->c_str());
  std::printf("engine : %s\n", metrics.ToString().c_str());
  if (metrics.rounds.size() > 1) {
    std::printf("rounds :");
    for (const RoundMetrics& r : metrics.rounds) {
      std::printf(" %llu",
                  static_cast<unsigned long long>(r.updated_params));
    }
    std::printf("  (parameter updates per superstep)\n");
  }
  return 0;
}

}  // namespace
}  // namespace grape

int main(int argc, char** argv) { return grape::Run(argc, argv); }
