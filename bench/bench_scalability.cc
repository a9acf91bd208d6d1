// Experiment E4 — the Fig. 3(4) analytics panel: scalability of GRAPE as
// the number of workers grows, with the fine-grained PEval vs IncEval time
// breakdown the demo visualizes. Expected shape: compute time falls as
// workers are added (until fragments get small), communication rises
// gently, and PEval dominates IncEval for monotonic queries.
//
// Workers are the only parallelism knob: each fragment's PEval/IncEval
// runs sequentially, as in the paper.
//
// Flags: --scale (RMAT), --rows/--cols (road), --max_workers,
//        --full (paper-shaped sizes instead of smoke defaults),
//        --json <path> (one row per sweep point).

#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/seq/seq_algorithms.h"
#include "bench/bench_util.h"
#include "util/flags.h"

namespace grape {
namespace bench {
namespace {

/// Highest out-degree vertex: a source whose query exercises the graph.
VertexId BusiestVertex(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(best)) best = v;
  }
  return best;
}

/// Worker counts to benchmark: powers of two up to max_workers, plus
/// max_workers itself when it is not a power of two (the old sweep
/// silently stopped at the last power of two below it, so e.g.
/// --max_workers=12 never benchmarked 12 workers).
std::vector<FragmentId> SweepPoints(FragmentId max_workers) {
  std::vector<FragmentId> points;
  for (FragmentId n = 1; n <= max_workers; n *= 2) points.push_back(n);
  if (points.empty() || points.back() != max_workers) {
    std::printf("note: --max_workers=%u is not a power of two; sweeping "
                "powers of two below it, then clamping the final point to "
                "%u (the skipped power-of-two step would overshoot)\n",
                max_workers, max_workers);
    points.push_back(max_workers);
  }
  return points;
}

template <typename App, typename Query>
void Sweep(const Graph& g, const std::string& title, const Query& query,
           FragmentId max_workers, const std::string& strategy,
           const std::string& label, Report* report) {
  PrintHeader(title);
  std::printf("%8s %10s %10s %10s %10s %12s %12s %8s\n", "Workers",
              "Time(s)", "PEval(s)", "IncEval(s)", "Coord(s)", "Comm",
              "ParamUpd", "Steps");
  double t1 = 0;
  double peval1 = 0;
  for (FragmentId n : SweepPoints(max_workers)) {
    FragmentedGraph fg = Fragmentize(g, strategy, n);
    GrapeEngine<App> engine(fg, App{});
    auto out = engine.Run(query);
    GRAPE_CHECK(out.ok()) << out.status();
    const EngineMetrics& m = engine.metrics();
    uint64_t updates = 0;
    for (const RoundMetrics& r : m.rounds) updates += r.updated_params;
    if (n == 1) {
      t1 = m.total_seconds;
      peval1 = m.peval_seconds;
    }
    std::printf("%8u %10.3f %10.3f %10.3f %10.3f %12s %12s %8u   "
                "(speedup total %4.2fx, peval %4.2fx)\n",
                n, m.total_seconds, m.peval_seconds, m.inceval_seconds,
                m.coordinator_seconds, HumanBytes(m.bytes).c_str(),
                HumanCount(updates).c_str(), m.supersteps,
                t1 / m.total_seconds,
                peval1 / std::max(1e-9, m.peval_seconds));

    ReportRow row = MetricsRow(label + " workers=" + std::to_string(n),
                               "scalability sweep (" + strategy + ")", m);
    row.messages = updates;
    report->Add(row);
  }
}

int Run(int argc, char** argv) {
  const FlagParser flags = ParseBenchFlags(
      argc, argv, {"rows", "cols", "scale", "max_workers", "full"});
  // --full is profile scaffolding: paper-shaped sizes for overnight runs
  // on real hardware; smoke defaults keep CI in seconds. Explicit size
  // flags always win.
  const bool full = flags.GetBool("full", false);
  CommunityGraphOptions copts;
  copts.num_vertices =
      1u << static_cast<uint32_t>(flags.GetInt("scale", full ? 20 : 16));
  copts.avg_degree = 16;
  copts.num_communities = 128;
  copts.seed = 34;
  const auto rows =
      static_cast<uint32_t>(flags.GetInt("rows", full ? 1500 : 500));
  const auto cols =
      static_cast<uint32_t>(flags.GetInt("cols", full ? 1500 : 500));
  const auto max_workers =
      static_cast<FragmentId>(flags.GetInt("max_workers", 16));

  auto social = GenerateCommunityGraph(copts);
  GRAPE_CHECK(social.ok());
  auto road = GenerateGridRoad(rows, cols, 35);
  GRAPE_CHECK(road.ok());
  const VertexId social_src = BusiestVertex(*social);

  Report report("scalability");
  Sweep<SsspApp>(*road,
                 "Fig 3(4)a: SSSP scalability on road network (grid2d)",
                 SsspQuery{0}, max_workers, "grid2d", "SSSP/road", &report);
  Sweep<SsspApp>(*social,
                 "Fig 3(4)b: SSSP scalability on social graph (metis)",
                 SsspQuery{social_src}, max_workers, "metis", "SSSP/social",
                 &report);
  Sweep<CcApp>(*social,
               "Fig 3(4)c: CC scalability on social graph (hash)", CcQuery{},
               max_workers, "hash", "CC/social", &report);
  PageRankQuery pr;
  pr.max_iterations = 20;
  pr.epsilon = 0.0;
  Sweep<PageRankApp>(*social,
                     "Fig 3(4)d: PageRank (20 iters) on social graph (metis)",
                     pr, max_workers, "metis", "PageRank/social", &report);
  MaybeWriteJson(flags, report);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace grape

int main(int argc, char** argv) { return grape::bench::Run(argc, argv); }
