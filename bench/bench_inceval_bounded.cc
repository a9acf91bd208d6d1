// Experiment E6 — the boundedness claim of Sec. 2.2(2): IncEval's cost is a
// function of |M_i| + |ΔO_i| (changes in and out), not of |F_i|. Three
// probes:
//
// (a) Ablation: the same SSSP query with bounded IncEval vs. the engine's
//     full-re-evaluation mode (every round re-evaluates whole fragments, the
//     Blogel-style discipline). Expected shape: IncEval time grows much more
//     slowly with graph size than recompute time.
//
// (b) Per-round scaling: on one large graph, per-round IncEval time tracks
//     the round's update count, not the (constant) fragment size.
//
// (c) Q(G ⊕ M) from Q(G): after one edge insertion, a query session's
//     incremental delta updates a vanishing fraction of the parameters the
//     full run updated.
//
// Flags: --workers, --json <path> (IncEval-vs-recompute rows).

#include "apps/seq/seq_algorithms.h"
#include "bench/bench_util.h"
#include "graph/mutation.h"
#include "rt/transport.h"
#include "util/flags.h"

namespace grape {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const FlagParser flags = ParseBenchFlags(argc, argv, {"workers"});
  const auto workers = static_cast<FragmentId>(flags.GetInt("workers", 8));
  Report report("inceval_bounded");

  PrintHeader("IncEval boundedness (a): bounded IncEval vs full recompute");
  std::printf("%12s %14s %16s %10s\n", "Graph |V|", "IncEval(s)",
              "Recompute(s)", "Ratio");
  for (uint32_t side : {60u, 90u, 130u, 190u}) {
    auto g = GenerateGridRoad(side, side, 601 + side);
    GRAPE_CHECK(g.ok());
    std::vector<double> expected = SeqDijkstra(*g, 0);
    FragmentedGraph fg = Fragmentize(*g, "grid2d", workers);

    GrapeEngine<SsspApp> inc(fg, SsspApp{});
    auto inc_out = inc.Run(SsspQuery{0});
    GRAPE_CHECK(inc_out.ok());
    GRAPE_CHECK(SsspMatches(inc_out->dist, expected));

    EngineOptions opts;
    opts.incremental = false;
    GrapeEngine<SsspApp> full(fg, SsspApp{}, opts);
    auto full_out = full.Run(SsspQuery{0});
    GRAPE_CHECK(full_out.ok());
    GRAPE_CHECK(SsspMatches(full_out->dist, expected));

    std::printf("%12u %14.4f %16.4f %9.1fx\n", side * side,
                inc.metrics().inceval_seconds,
                full.metrics().inceval_seconds,
                full.metrics().inceval_seconds /
                    std::max(1e-9, inc.metrics().inceval_seconds));

    const std::string size_tag = " |V|=" + std::to_string(side * side);
    ReportRow inc_row =
        MetricsRow("IncEval" + size_tag, "bounded inceval", inc.metrics());
    inc_row.time_s = inc.metrics().inceval_seconds;
    report.Add(inc_row);
    ReportRow full_row = MetricsRow("Recompute" + size_tag,
                                    "full re-evaluation", full.metrics());
    full_row.time_s = full.metrics().inceval_seconds;
    report.Add(full_row);
  }

  PrintHeader(
      "IncEval boundedness (c): incremental re-answering after graph "
      "updates (Q(G+M) from Q(G))");
  {
    std::printf("%12s %16s %16s %14s %14s\n", "Graph |V|", "Full run upd",
                "Incr. upd", "Full(s)", "Incr(s)");
    for (uint32_t side : {80u, 120u, 160u}) {
      auto g = GenerateGridRoad(side, side, 701 + side);
      GRAPE_CHECK(g.ok());
      FragmentedGraph fg = Fragmentize(*g, "grid2d", workers);
      // Q(G) in a query session over in-thread inproc hosts; the update
      // streams into its resident fragments and Q(G ⊕ M) is re-answered
      // from the converged state.
      auto world = MakeTransport("inproc", workers + 1);
      GRAPE_CHECK(world.ok());
      EngineOptions eo;
      eo.transport = world->get();
      eo.remote_app = "sssp";
      GrapeEngine<SsspApp> engine(fg, SsspApp{}, eo);
      GRAPE_CHECK(engine.SessionRun(SsspQuery{0}).ok());
      const EngineMetrics initial = engine.metrics();
      uint64_t full_updates = 0;
      for (const RoundMetrics& r : initial.rounds) {
        full_updates += r.updated_params;
      }

      // Insert one shortcut near the far corner and re-answer.
      const VertexId corner = side * side - 1;
      MutationBatch m;
      m.InsertEdge(corner - 3, corner, 0.5);
      m.InsertEdge(corner, corner - 3, 0.5);
      auto updated = ApplyMutations(*g, m);
      GRAPE_CHECK(updated.ok());
      GRAPE_CHECK(engine.ApplyMutations(m).ok());
      auto out = engine.RunIncremental(SsspQuery{0}, m);
      GRAPE_CHECK(out.ok());
      GRAPE_CHECK(SsspMatches(out->dist, SeqDijkstra(*updated, 0)));
      const EngineMetrics& incremental = engine.metrics();
      uint64_t incr_updates = 0;
      for (const RoundMetrics& r : incremental.rounds) {
        incr_updates += r.updated_params;
      }
      std::printf("%12u %16llu %16llu %14.4f %14.4f\n", side * side,
                  static_cast<unsigned long long>(full_updates),
                  static_cast<unsigned long long>(incr_updates),
                  initial.total_seconds, incremental.total_seconds);

      ReportRow row = MetricsRow(
          "Q(G+M) session delta |V|=" + std::to_string(side * side),
          "incremental re-answering", incremental);
      row.messages = incr_updates;
      report.Add(row);
    }
  }

  PrintHeader("IncEval boundedness (b): per-round cost tracks update size");
  {
    auto g = GenerateGridRoad(200, 200, 907);
    GRAPE_CHECK(g.ok());
    FragmentedGraph fg = Fragmentize(*g, "grid2d", workers);
    GrapeEngine<SsspApp> engine(fg, SsspApp{});
    auto out = engine.Run(SsspQuery{0});
    GRAPE_CHECK(out.ok());
    std::printf("fragment size is constant at ~%u vertices/worker\n",
                g->num_vertices() / workers);
    std::printf("%6s %12s %14s %18s\n", "Round", "ParamUpd", "Round(s)",
                "us per update");
    const auto& rounds = engine.metrics().rounds;
    for (size_t i = 1; i < rounds.size(); ++i) {
      if (rounds[i].updated_params == 0) continue;
      std::printf("%6u %12llu %14.5f %18.2f\n", rounds[i].round,
                  static_cast<unsigned long long>(rounds[i].updated_params),
                  rounds[i].seconds,
                  rounds[i].seconds * 1e6 /
                      static_cast<double>(rounds[i].updated_params));
    }
  }
  MaybeWriteJson(flags, report);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace grape

int main(int argc, char** argv) { return grape::bench::Run(argc, argv); }
