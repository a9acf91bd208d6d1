// Experiment E5 — the Fig. 3(5) / Sec. 3 query-class comparison: every
// registered PIE program (SSSP, CC, Sim, SubIso, Keyword, CF) runs through
// the registry on an appropriate workload, next to the baseline execution
// models where they implement the same query. Expected shape: GRAPE at
// least matches the baselines on every class while shipping far less data,
// and classes like Sim/SubIso/CF — painful to express vertex-centrically —
// run unchanged as plugged-in sequential algorithms.
//
// Flags: --workers --scale,
//        --json <path> (one row per query class + the cross-model table).

#include "apps/register_apps.h"
#include "apps/seq/seq_algorithms.h"
#include "bench/bench_util.h"
#include "core/app_registry.h"
#include "util/flags.h"

namespace grape {
namespace bench {
namespace {

void RunClass(const std::string& name, const FragmentedGraph& fg,
              const QueryArgs& args, Report* report) {
  auto app = AppRegistry::Global().Get(name);
  GRAPE_CHECK(app.ok()) << app.status();
  EngineMetrics metrics;
  WallTimer timer;
  auto result = app->run(fg, args, EngineOptions{}, &metrics);
  GRAPE_CHECK(result.ok()) << result.status();
  const double seconds = timer.ElapsedSeconds();
  std::printf("%-9s %10.3f %12s %8u   %s\n", name.c_str(), seconds,
              HumanBytes(metrics.bytes).c_str(), metrics.supersteps,
              result->c_str());
  ReportRow row = MetricsRow(name, "query class (registry)", metrics);
  row.time_s = seconds;
  report->Add(row);
}

int Run(int argc, char** argv) {
  const FlagParser flags = ParseBenchFlags(argc, argv, {"scale", "workers"});
  const auto workers = static_cast<FragmentId>(flags.GetInt("workers", 8));
  const auto scale = static_cast<uint32_t>(flags.GetInt("scale", 13));
  RegisterBuiltinApps();
  Report report("query_classes");

  LabeledGraphOptions lopts;
  lopts.scale = scale;
  lopts.edge_factor = 8;
  lopts.num_vertex_labels = 16;
  lopts.seed = 2024;
  auto labeled = GenerateLabeledGraph(lopts);
  GRAPE_CHECK(labeled.ok());
  FragmentedGraph labeled_fg = Fragmentize(*labeled, "metis", workers);

  BipartiteOptions bopts;
  bopts.num_users = 6000;
  bopts.num_items = 400;
  bopts.ratings_per_user = 25;
  auto ratings = GenerateBipartiteRatings(bopts);
  GRAPE_CHECK(ratings.ok());
  FragmentedGraph ratings_fg = Fragmentize(*ratings, "hash", workers);

  SocialGraphOptions sopts;
  sopts.num_persons = 30000;
  sopts.num_items = 20;
  auto social = GenerateSocialGraph(sopts);
  GRAPE_CHECK(social.ok());
  FragmentedGraph social_fg = Fragmentize(*social, "hash", workers);

  PrintHeader("Query classes through the GRAPE registry (" +
              std::to_string(workers) + " workers)");
  std::printf("%-9s %10s %12s %8s   %s\n", "Class", "Time(s)", "Comm",
              "Steps", "Answer summary");
  RunClass("sssp", labeled_fg, ParseQueryArgs({"source=0"}), &report);
  RunClass("bfs", labeled_fg, ParseQueryArgs({"source=0"}), &report);
  RunClass("cc", labeled_fg, {}, &report);
  RunClass("pagerank", labeled_fg, ParseQueryArgs({"iters=20"}), &report);
  RunClass("sim", labeled_fg,
           ParseQueryArgs({"pattern=path3", "l0=1", "l1=2", "l2=3"}), &report);
  RunClass("subiso", labeled_fg,
           ParseQueryArgs({"pattern=path3", "l0=1", "l1=2", "l2=3",
                           "limit=200000"}), &report);
  RunClass("keyword", labeled_fg,
           ParseQueryArgs({"k0=1", "k1=2", "radius=4"}), &report);
  RunClass("cf", ratings_fg, ParseQueryArgs({"rank=8", "epochs=8"}), &report);
  RunClass("gpar", social_fg, ParseQueryArgs({"item=30000"}), &report);
  RunClass("triangle", labeled_fg, {}, &report);

  // Cross-model comparison on the classes the baselines implement.
  PrintHeader("SSSP across execution models (power-law graph)");
  std::vector<double> expected = SeqDijkstra(*labeled, 0);
  FragmentedGraph hash_fg = Fragmentize(*labeled, "hash", workers);
  std::vector<SystemRow> table;
  table.push_back(RunVcSssp(hash_fg, 0, expected, "Giraph-like (VC)"));
  table.push_back(RunGasSssp(hash_fg, 0, expected, "GraphLab-like (GAS)"));
  table.push_back(RunBlockSssp(hash_fg, 0, expected, "Blogel-like (block)"));
  table.push_back(
      RunGrapeSssp(labeled_fg, 0, expected, EngineOptions{}, "GRAPE"));
  PrintSystemTable(table);
  AddSystemTable(table, &report);
  MaybeWriteJson(flags, report);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace grape

int main(int argc, char** argv) { return grape::bench::Run(argc, argv); }
