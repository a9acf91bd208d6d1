// Experiment E3 — reproduces the Sec. 3(2) partition-impact demo:
// "for SSSP, GRAPE takes 18.3 s and ships 7.5M messages with 16 nodes over
//  LiveJournal partitioned with METIS. It takes 30 s and ships 40M messages
//  with stream-based partition in the same setting due to more cross edges."
//
// We sweep partition strategies on a LiveJournal-like power-law graph and
// report time, parameter messages and cut quality. Expected shape: the
// offline multilevel partitioner ships the fewest updates and runs fastest;
// streaming (LDG) is in between; hash is worst.
//
// Flags: --scale --edge_factor --workers,
//        --json <path> (one row per partition strategy).

#include "apps/seq/seq_algorithms.h"
#include "bench/bench_util.h"
#include "partition/quality.h"
#include "util/flags.h"

namespace grape {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const FlagParser flags = ParseBenchFlags(
      argc, argv, {"scale", "workers", "communities", "degree", "intra"});
  CommunityGraphOptions opts;
  opts.num_vertices = 1u << static_cast<uint32_t>(flags.GetInt("scale", 15));
  opts.avg_degree = static_cast<uint32_t>(flags.GetInt("degree", 14));
  opts.num_communities =
      static_cast<uint32_t>(flags.GetInt("communities", 96));
  opts.intra_fraction = flags.GetDouble("intra", 0.92);
  opts.seed = 1899;
  const FragmentId workers =
      static_cast<FragmentId>(flags.GetInt("workers", 16));

  auto g = GenerateCommunityGraph(opts);
  GRAPE_CHECK(g.ok()) << g.status();
  std::vector<double> expected = SeqDijkstra(*g, 0);

  PrintHeader("Sec. 3(2): partition impact on SSSP (LiveJournal-like "
              "community graph, 2^" +
              std::to_string(flags.GetInt("scale", 15)) + " vertices, " +
              std::to_string(workers) + " workers)");
  std::printf("%-10s %10s %12s %12s %10s %10s %9s\n", "Strategy", "Time(s)",
              "ParamUpd", "Comm", "CutEdges", "Cut%", "PartTime");

  struct Row {
    std::string name;
    double seconds;
    uint64_t updates;
  };
  std::vector<Row> rows;
  Report report("partition_impact");
  for (const std::string strategy : {"metis", "ldg", "fennel", "hash"}) {
    auto partitioner = MakePartitioner(strategy);
    GRAPE_CHECK(partitioner.ok());
    WallTimer part_timer;
    auto assignment = (*partitioner)->Partition(*g, workers);
    double part_seconds = part_timer.ElapsedSeconds();
    GRAPE_CHECK(assignment.ok());
    PartitionQuality quality = EvaluatePartition(*g, *assignment, workers);
    auto fg = FragmentBuilder::Build(*g, *assignment, workers);
    GRAPE_CHECK(fg.ok());

    GrapeEngine<SsspApp> engine(*fg, SsspApp{});
    auto out = engine.Run(SsspQuery{0});
    GRAPE_CHECK(out.ok()) << out.status();
    GRAPE_CHECK(SsspMatches(out->dist, expected)) << strategy;

    // Parameter updates = per-round routed values (the paper's "messages").
    uint64_t updates = 0;
    for (const RoundMetrics& r : engine.metrics().rounds) {
      updates += r.updated_params;
    }
    std::printf("%-10s %10.3f %12s %12s %10zu %9.1f%% %8.2fs\n",
                strategy.c_str(), engine.metrics().total_seconds,
                HumanCount(updates).c_str(),
                HumanBytes(engine.metrics().bytes).c_str(),
                quality.cut_edges, quality.cut_fraction * 100.0,
                part_seconds);
    rows.push_back({strategy, engine.metrics().total_seconds, updates});

    ReportRow json_row =
        MetricsRow(strategy, "partition strategy", engine.metrics());
    json_row.messages = updates;
    report.Add(json_row);
  }

  std::printf("\nShape checks (paper: METIS 18.3s/7.5M vs stream 30s/40M "
              "=> 1.6x time, 5.3x messages):\n");
  std::printf("  updates ratio ldg/metis  = %6.2fx\n",
              static_cast<double>(rows[1].updates) / rows[0].updates);
  std::printf("  updates ratio hash/metis = %6.2fx\n",
              static_cast<double>(rows[3].updates) / rows[0].updates);
  std::printf("  time    ratio hash/metis = %6.2fx\n",
              rows[3].seconds / rows[0].seconds);
  MaybeWriteJson(flags, report);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace grape

int main(int argc, char** argv) { return grape::bench::Run(argc, argv); }
