// Experiment E2 — the Fig. 1 fixed-point workflow made visible: per-
// superstep message volume and changed-parameter counts for PEval followed
// by IncEval rounds. Expected shape: a large first wave from partial
// evaluation, then geometrically decaying incremental work until the
// simultaneous fixed point — the mechanism behind GRAPE's low traffic.
//
// Flags: --rows/--cols (road), --scale (RMAT), --workers,
//        --json <path> (one summary row per traced run).

#include "apps/cc.h"
#include "apps/seq/seq_algorithms.h"
#include "bench/bench_util.h"
#include "util/flags.h"

namespace grape {
namespace bench {
namespace {

VertexId BusiestVertex(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(best)) best = v;
  }
  return best;
}

template <typename App, typename Query>
void Trace(const Graph& g, const std::string& title, const Query& query,
           FragmentId workers, const std::string& strategy,
           const std::string& label, Report* report) {
  PrintHeader(title);
  FragmentedGraph fg = Fragmentize(g, strategy, workers);
  GrapeEngine<App> engine(fg, App{});
  auto out = engine.Run(query);
  GRAPE_CHECK(out.ok()) << out.status();

  std::printf("%6s %10s %12s %12s %12s\n", "Round", "Phase", "Messages",
              "Bytes", "ParamUpd");
  const auto& rounds = engine.metrics().rounds;
  for (size_t i = 0; i < rounds.size(); ++i) {
    std::printf("%6u %10s %12s %12s %12s\n", rounds[i].round,
                i == 0 ? "PEval" : "IncEval",
                HumanCount(rounds[i].messages).c_str(),
                HumanBytes(rounds[i].bytes).c_str(),
                HumanCount(rounds[i].updated_params).c_str());
  }
  std::printf("fixed point after %u supersteps, total %s shipped\n",
              engine.metrics().supersteps,
              HumanBytes(engine.metrics().bytes).c_str());

  report->Add(MetricsRow(label, "fixed-point trace (" + strategy + ")",
                         engine.metrics()));
}

int Run(int argc, char** argv) {
  const FlagParser flags =
      ParseBenchFlags(argc, argv, {"rows", "cols", "scale", "workers"});
  const auto rows = static_cast<uint32_t>(flags.GetInt("rows", 150));
  const auto cols = static_cast<uint32_t>(flags.GetInt("cols", 150));
  const auto workers = static_cast<FragmentId>(flags.GetInt("workers", 8));
  RMatOptions ropts;
  ropts.scale = static_cast<uint32_t>(flags.GetInt("scale", 14));
  ropts.edge_factor = 10;
  ropts.seed = 201;

  auto road = GenerateGridRoad(rows, cols, 202);
  GRAPE_CHECK(road.ok());
  auto rmat = GenerateRMat(ropts);
  GRAPE_CHECK(rmat.ok());

  Report report("fixed_point");
  Trace<SsspApp>(*road, "Fixed point trace: SSSP on road network",
                 SsspQuery{0}, workers, "grid2d", "SSSP/road", &report);
  Trace<SsspApp>(*rmat, "Fixed point trace: SSSP on power-law graph",
                 SsspQuery{BusiestVertex(*rmat)}, workers, "metis",
                 "SSSP/power-law", &report);
  Trace<CcApp>(*rmat, "Fixed point trace: CC on power-law graph", CcQuery{},
               workers, "hash", "CC/power-law", &report);
  MaybeWriteJson(flags, report);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace grape

int main(int argc, char** argv) { return grape::bench::Run(argc, argv); }
