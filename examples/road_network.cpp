// Road-network analytics: the Table 1 scenario as an application. Generates
// a road-like grid, compares partition strategies for SSSP (the "play"
// panel's strategy dropdown), and prints a per-superstep trace of the
// fixed-point computation.
//
// Flags: --rows --cols --workers --source

#include <cstdio>
#include <string>

#include "apps/seq/seq_algorithms.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "partition/quality.h"
#include "util/flags.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace grape;
  const std::vector<std::string> kFlags = {"rows", "cols", "workers", "source"};
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, kFlags); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const auto rows = static_cast<uint32_t>(flags.GetInt("rows", 120));
  const auto cols = static_cast<uint32_t>(flags.GetInt("cols", 120));
  const auto workers = static_cast<FragmentId>(flags.GetInt("workers", 8));
  const auto source = static_cast<VertexId>(flags.GetInt("source", 0));

  auto graph = GenerateGridRoad(rows, cols, /*seed=*/7,
                                /*max_weight=*/10.0,
                                /*shortcut_fraction=*/0.01);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("road network: %u intersections, %zu road segments\n",
              graph->num_vertices(), graph->num_edges() / 2);

  std::vector<double> reference = SeqDijkstra(*graph, source);

  std::printf("\n%-10s %10s %10s %12s %8s %10s\n", "Strategy", "Cut%",
              "Time(s)", "Comm", "Steps", "Correct");
  for (const std::string strategy :
       {"hash", "range", "grid2d", "metis", "voronoi"}) {
    auto partitioner = MakePartitioner(strategy);
    auto assignment = (*partitioner)->Partition(*graph, workers);
    PartitionQuality quality =
        EvaluatePartition(*graph, *assignment, workers);
    auto fg = FragmentBuilder::Build(*graph, *assignment, workers);

    GrapeEngine<SsspApp> engine(*fg, SsspApp{});
    auto out = engine.Run(SsspQuery{source});
    if (!out.ok()) {
      std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
      return 1;
    }
    bool correct = out->dist == reference;
    std::printf("%-10s %9.1f%% %10.4f %12s %8u %10s\n", strategy.c_str(),
                quality.cut_fraction * 100.0,
                engine.metrics().total_seconds,
                HumanBytes(engine.metrics().bytes).c_str(),
                engine.metrics().supersteps, correct ? "yes" : "NO");
  }

  // Fine-grained analytics for the best road strategy (Fig. 3(4)).
  auto partitioner = MakePartitioner("grid2d");
  auto assignment = (*partitioner)->Partition(*graph, workers);
  auto fg = FragmentBuilder::Build(*graph, *assignment, workers);
  GrapeEngine<SsspApp> engine(*fg, SsspApp{});
  auto out = engine.Run(SsspQuery{source});
  std::printf("\nfixed-point trace (grid2d):\n%6s %12s %12s\n", "round",
              "messages", "updates");
  for (const RoundMetrics& r : engine.metrics().rounds) {
    std::printf("%6u %12llu %12llu\n", r.round,
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.updated_params));
  }
  return 0;
}
