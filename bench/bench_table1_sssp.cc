// Experiment E1 — reproduces Table 1 of the paper: single-source shortest
// paths over a road network, comparing the four execution models:
//
//   System    Category               Time(s)   Comm.(MB)
//   Giraph    vertex-centric         10126     1.02e5
//   GraphLab  vertex-centric          8586     1.02e5
//   Blogel    block-centric            226     2.8e3
//   GRAPE     auto-parallelization     10.5     0.05
//
// Absolute numbers differ (the paper ran a 24-processor cluster on the
// 24M-vertex US road network; we run an in-process simulation on a
// generated grid road graph), but the *shape* must hold: GRAPE beats
// block-centric beats vertex-centric in time, and GRAPE's communication is
// orders of magnitude below per-vertex messaging.
//
// Flags: --rows --cols (grid size), --workers, --source,
//        --transport inproc|tcp (substrate for the GRAPE rows),
//        --compute local|remote (where PEval/IncEval execute),
//        --load coordinator|distributed (how fragments come to exist;
//          distributed requires --compute=remote),
//        --full (paper-shaped sizes instead of smoke defaults),
//        --rank N --hosts a:p,... (tcp cluster mode; rank>0 = endpoint),
//        --json <path> (machine-readable report, rows in table order).
//
// Besides the four-system table, the bench always appends a GRAPE row per
// transport backend (inproc, tcp) on the same partition, a
// local-vs-remote compute pair on the chosen transport (comm must be
// identical; only time may move), and three load-phase rows measuring
// time-to-fragments-resident per (load mode, placement):
//
//   GRAPE load (coordinator/local)   partition + build at rank 0
//   GRAPE load (coordinator/remote)  ... + serialize + ship to workers
//   GRAPE load (distributed/remote)  per-rank shard read + exchange +
//                                    in-place assembly (rank 0 never
//                                    materializes the graph)
//
// With --load=distributed the headline "GRAPE" and "GRAPE (hash)" rows run
// on distributed-built fragments; CI gates that their comm counters,
// rounds, and correctness match a --load=coordinator run exactly.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "apps/register_apps.h"
#include "apps/seq/seq_algorithms.h"
#include "bench/bench_util.h"
#include "graph/io.h"
#include "rt/cluster.h"
#include "rt/distributed_load.h"
#include "rt/transport.h"
#include "util/flags.h"

namespace grape {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const FlagParser flags = ParseBenchFlags(
      argc, argv,
      ClusterSpec::WithFlagNames({"rows", "cols", "workers", "source",
                                  "transport", "compute", "load", "full"}));
  // --full is profile scaffolding (ROADMAP housekeeping): paper-shaped
  // sizes for overnight runs; smoke defaults keep CI in seconds. Explicit
  // --rows/--cols always win.
  const bool full = flags.GetBool("full", false);
  const uint32_t rows =
      static_cast<uint32_t>(flags.GetInt("rows", full ? 512 : 170));
  const uint32_t cols =
      static_cast<uint32_t>(flags.GetInt("cols", full ? 512 : 170));
  const FragmentId workers =
      static_cast<FragmentId>(flags.GetInt("workers", 8));
  const VertexId source = static_cast<VertexId>(flags.GetInt("source", 0));
  const std::string transport = flags.GetString("transport", "inproc");
  const std::string compute = flags.GetString("compute", "local");
  GRAPE_CHECK(compute == "local" || compute == "remote")
      << "--compute must be local or remote";
  const std::string load = flags.GetString("load", "coordinator");
  GRAPE_CHECK(load == "coordinator" || load == "distributed")
      << "--load must be coordinator or distributed";
  GRAPE_CHECK(load == "coordinator" || compute == "remote")
      << "--load=distributed leaves rank 0 without fragments; pass "
         "--compute=remote";

  // Endpoint processes (forked at transport creation) resolve remote
  // apps by name from a registry snapshot taken at fork: populate first.
  RegisterBuiltinWorkerApps();

  auto cluster = ClusterSpec::FromFlags(flags);
  GRAPE_CHECK(cluster.ok()) << cluster.status();
  // Cluster endpoint mode (--rank > 0): serve this rank's place in the
  // tcp mesh for the rank-0 bench process, then exit.
  int endpoint_exit = 0;
  if (RanAsClusterEndpoint(*cluster, transport, &endpoint_exit)) {
    return endpoint_exit;
  }

  // In cluster mode the remote endpoints serve exactly one world and then
  // exit, so only the FIRST world of the chosen substrate (the headline
  // GRAPE row) gets the --hosts roster; every other row — including the
  // same backend's later rows — runs on a local auto-spawn world.
  bool cluster_world_used = cluster->single_host();
  auto make_world = [&](const std::string& backend) {
    auto t = (backend == transport && !cluster_world_used)
                 ? MakeClusterTransport(backend, workers + 1, *cluster)
                 : MakeTransport(backend, workers + 1);
    if (backend == transport) cluster_world_used = true;
    GRAPE_CHECK(t.ok()) << t.status();
    return std::move(t).value();
  };
  auto with_transport = [&compute](Transport* t) {
    EngineOptions options;
    options.transport = t;
    if (compute == "remote") options.remote_app = "sssp";
    return options;
  };

  auto g = GenerateGridRoad(rows, cols, /*seed=*/1701);
  GRAPE_CHECK(g.ok()) << g.status();
  std::vector<double> expected = SeqDijkstra(*g, source);

  PrintHeader("Table 1: graph traversal (SSSP) on a " +
              std::to_string(rows) + "x" + std::to_string(cols) +
              " road network, " + std::to_string(workers) + " workers, " +
              transport + " transport");

  // Each system runs with its native partitioning: vertex-centric systems
  // hash by default, the block-centric system builds Voronoi (GVD) blocks
  // as Blogel does, and GRAPE exercises its graph-level-optimization claim
  // by picking the best registered strategy for road graphs (2-D tiling,
  // METIS-grade on a lattice). GRAPE byte counts include both legs of the
  // coordinator relay.
  FragmentedGraph hash_fg = Fragmentize(*g, "hash", workers);
  FragmentedGraph voronoi_fg = Fragmentize(*g, "voronoi", workers);
  // The headline partition is built by hand so (a) the coordinator-side
  // build is timed (the "GRAPE load (coordinator/*)" rows) and (b) the
  // assignment is available for --load=distributed to ship.
  WallTimer grid_build_timer;
  auto grid_partitioner = MakePartitioner("grid2d");
  GRAPE_CHECK(grid_partitioner.ok()) << grid_partitioner.status();
  auto grid_assignment = (*grid_partitioner)->Partition(*g, workers);
  GRAPE_CHECK(grid_assignment.ok()) << grid_assignment.status();
  auto grid_built = FragmentBuilder::Build(*g, *grid_assignment, workers);
  GRAPE_CHECK(grid_built.ok()) << grid_built.status();
  FragmentedGraph grid_fg = std::move(grid_built).value();
  const double coordinator_build_seconds = grid_build_timer.ElapsedSeconds();

  // Edge-list file for the distributed load path (the load rows always
  // measure it; the headline rows run from it under --load=distributed).
  const std::string shard_path =
      "/tmp/grape_bench_table1_" + std::to_string(getpid()) + ".txt";
  GRAPE_CHECK(SaveEdgeListFile(*g, shard_path).ok());
  EdgeListFormat saved_format;
  saved_format.directed = true;
  saved_format.has_weight = true;
  saved_format.has_label = true;
  auto distributed_grid_options = [&] {
    DistributedLoadOptions dopt;
    dopt.path = shard_path;
    dopt.format = saved_format;
    dopt.partitioner = "explicit";
    dopt.assignment = *grid_assignment;
    return dopt;
  };

  std::vector<SystemRow> table;
  table.push_back(
      RunVcSssp(hash_fg, source, expected, "Giraph-like (VC)"));
  table.push_back(
      RunGasSssp(hash_fg, source, expected, "GraphLab-like (GAS)"));
  table.push_back(
      RunBlockSssp(voronoi_fg, source, expected, "Blogel-like (block)"));
  std::unique_ptr<Transport> grape_world = make_world(transport);
  double distributed_load_seconds = 0;
  if (load == "distributed") {
    WallTimer dl_timer;
    auto meta = DistributedLoad(grape_world.get(), distributed_grid_options());
    GRAPE_CHECK(meta.ok()) << meta.status();
    distributed_load_seconds = dl_timer.ElapsedSeconds();
    table.push_back(RunGrapeSsspDistributed(
        *meta, source, expected, with_transport(grape_world.get()), "GRAPE"));
  } else {
    table.push_back(RunGrapeSssp(grid_fg, source, expected,
                                 with_transport(grape_world.get()), "GRAPE"));
  }
  // Same engine on the vertex-centric systems' hash partition: the
  // worst-case cut maximizes border traffic, so this row is the one that
  // exercises (and tracks) the flush -> route -> apply message path.
  // Under --load=distributed the workers rebuild it in place from their
  // shards with the pure-arithmetic hash policy (no assignment shipped).
  std::unique_ptr<Transport> hash_world = make_world(transport);
  if (load == "distributed") {
    DistributedLoadOptions hopt;
    hopt.path = shard_path;
    hopt.format = saved_format;
    hopt.partitioner = "hash";
    auto hmeta = DistributedLoad(hash_world.get(), hopt);
    GRAPE_CHECK(hmeta.ok()) << hmeta.status();
    table.push_back(RunGrapeSsspDistributed(*hmeta, source, expected,
                                            with_transport(hash_world.get()),
                                            "GRAPE (hash)"));
  } else {
    table.push_back(RunGrapeSssp(hash_fg, source, expected,
                                 with_transport(hash_world.get()),
                                 "GRAPE (hash)"));
  }
  // The substrate pair: identical engine, partition, and query — only the
  // transport differs, so the row delta is pure substrate cost. The
  // backend already measured for the "GRAPE" row is reused (relabeled)
  // instead of re-run.
  auto pair_row = [&](const std::string& backend) {
    if (backend == transport) {
      SystemRow row = table[3];
      row.system = "GRAPE (" + backend + ")";
      return row;
    }
    std::unique_ptr<Transport> world = make_world(backend);
    return RunGrapeSssp(grid_fg, source, expected,
                        with_transport(world.get()),
                        "GRAPE (" + backend + ")");
  };
  const size_t pair_base = table.size();
  for (const std::string& backend : TransportNames()) {
    table.push_back(pair_row(backend));
  }
  // The compute-placement pair: identical engine, partition, query, and
  // transport — only WHERE PEval/IncEval execute differs (inline in the
  // rank-0 process vs inside each rank's worker host), so the row delta
  // is pure placement cost. Comm must be identical: the worker protocol's
  // control frames are invisible to the counters by design. The remote
  // run's metrics also yield the fragment-ship half of the
  // coordinator/remote load row.
  EngineMetrics remote_metrics;
  auto compute_row = [&](const std::string& mode, EngineMetrics* metrics) {
    std::unique_ptr<Transport> world = make_world(transport);
    EngineOptions options;
    options.transport = world.get();
    if (mode == "remote") options.remote_app = "sssp";
    return RunGrapeSssp(grid_fg, source, expected, options,
                        "GRAPE (" + mode + " compute)", metrics);
  };
  const size_t compute_base = table.size();
  table.push_back(compute_row("local", nullptr));
  table.push_back(compute_row("remote", &remote_metrics));
  // The fault-tolerance pair: the remote-compute row just above is the
  // checkpoint-off baseline; this row re-runs it with a checkpoint every
  // superstep (the worst-case cadence). The delta is pure checkpoint
  // cost — comm counters must not move, because checkpoint frames are
  // control traffic and invisible to CommStats by design. The time ratio
  // is reported warn-only: it tracks serialization throughput, which is
  // machine-dependent, so it must never gate CI.
  EngineMetrics ckpt_metrics;
  const size_t ckpt_base = table.size();
  {
    std::unique_ptr<Transport> world = make_world(transport);
    EngineOptions options;
    options.transport = world.get();
    options.remote_app = "sssp";
    options.checkpoint.every_k = 1;
    table.push_back(RunGrapeSssp(grid_fg, source, expected, options,
                                 "GRAPE (ckpt every 1)", &ckpt_metrics));
  }
  PrintSystemTable(table);

  // Load-phase rows: time-to-fragments-resident per (load mode,
  // placement). The distributed row is measured on a dedicated world when
  // the headline rows did not already run it.
  if (load != "distributed") {
    std::unique_ptr<Transport> world = make_world(transport);
    WallTimer dl_timer;
    auto meta = DistributedLoad(world.get(), distributed_grid_options());
    GRAPE_CHECK(meta.ok()) << meta.status();
    distributed_load_seconds = dl_timer.ElapsedSeconds();
  }
  struct LoadRow {
    std::string mode;
    double seconds;
  };
  const LoadRow load_rows[] = {
      {"coordinator/local", coordinator_build_seconds},
      {"coordinator/remote",
       coordinator_build_seconds + remote_metrics.load_seconds},
      {"distributed/remote", distributed_load_seconds},
  };
  std::printf("\nLoad phase (time to fragments resident, %s transport):\n",
              transport.c_str());
  for (const LoadRow& lr : load_rows) {
    std::printf("  %-22s %8.3fs\n", lr.mode.c_str(), lr.seconds);
  }
  std::remove(shard_path.c_str());

  const SystemRow& grape = table[3];
  std::printf("\nShape checks (paper: GRAPE >> Blogel >> Giraph/GraphLab):\n");
  std::printf("  time  ratio VC/GRAPE     = %8.1fx   (paper: ~964x)\n",
              table[0].seconds / grape.seconds);
  std::printf("  time  ratio GAS/GRAPE    = %8.1fx   (paper: ~818x)\n",
              table[1].seconds / grape.seconds);
  std::printf("  time  ratio Block/GRAPE  = %8.1fx   (paper: ~21.5x)\n",
              table[2].seconds / grape.seconds);
  std::printf("  comm  ratio VC/GRAPE     = %8.1fx   (paper: ~2e6x)\n",
              static_cast<double>(table[0].bytes) / grape.bytes);
  std::printf("  comm  ratio Block/GRAPE  = %8.1fx   (paper: ~5.6e4x)\n",
              static_cast<double>(table[2].bytes) / grape.bytes);

  const SystemRow& inproc_row = table[pair_base];
  std::printf("\nTransport rows (same engine/partition/query):\n");
  for (size_t i = pair_base + 1; i < compute_base; ++i) {
    const SystemRow& row = table[i];
    std::printf(
        "  time  ratio %s/inproc = %7.2fx  comm delta = %lld B (must be 0)\n",
        TransportNames()[i - pair_base].c_str(),
        row.seconds / inproc_row.seconds,
        static_cast<long long>(row.bytes) -
            static_cast<long long>(inproc_row.bytes));
  }

  const SystemRow& local_row = table[compute_base];
  const SystemRow& remote_row = table[compute_base + 1];
  std::printf("\nCompute rows (%s transport, same partition/query):\n",
              transport.c_str());
  std::printf(
      "  time  ratio remote/local = %7.2fx  comm delta = %lld B (must be 0)"
      "  rounds delta = %d (must be 0)\n",
      remote_row.seconds / local_row.seconds,
      static_cast<long long>(remote_row.bytes) -
          static_cast<long long>(local_row.bytes),
      static_cast<int>(remote_row.supersteps) -
          static_cast<int>(local_row.supersteps));

  const SystemRow& ckpt_row = table[ckpt_base];
  std::printf("\nCheckpoint row (%s transport, remote compute, every "
              "superstep):\n",
              transport.c_str());
  std::printf(
      "  time  ratio ckpt/remote = %7.2fx  comm delta = %lld B (must be 0)"
      "  ckpts=%u ckpt_bytes=%llu ckpt=%.3fs\n",
      ckpt_row.seconds / remote_row.seconds,
      static_cast<long long>(ckpt_row.bytes) -
          static_cast<long long>(remote_row.bytes),
      ckpt_metrics.checkpoints,
      static_cast<unsigned long long>(ckpt_metrics.checkpoint_bytes),
      ckpt_metrics.checkpoint_seconds);
  if (ckpt_row.seconds > 3.0 * remote_row.seconds) {
    std::printf("  WARN: per-superstep checkpointing cost %.1fx the "
                "checkpoint-off run (warn-only; serialization throughput "
                "is machine-dependent)\n",
                ckpt_row.seconds / remote_row.seconds);
  }

  Report report("table1_sssp");
  AddSystemTable(table, &report);
  for (const LoadRow& lr : load_rows) {
    ReportRow row;
    row.system = "GRAPE load (" + lr.mode + ")";
    row.category = "load-phase";
    row.time_s = lr.seconds;
    row.correct = true;
    report.Add(row);
  }
  MaybeWriteJson(flags, report);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace grape

int main(int argc, char** argv) { return grape::bench::Run(argc, argv); }
