// Experiment E7 — the Fig. 4 / Example 2 social-media-marketing demo:
// evaluate the GPAR "if >= 80% of x's followees recommend the item and none
// rates it badly, then x is a potential customer" over a Weibo-like social
// graph, report the top candidates ranked by confidence, and verify the
// paper's claim that "the more workers are used, the faster it finds
// potential customers".
//
// Flags: --persons --items --max_workers --support,
//        --json <path> (strong- and weak-scaling rows).

#include "apps/gpar.h"
#include "bench/bench_util.h"
#include "util/flags.h"

namespace grape {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const FlagParser flags = ParseBenchFlags(
      argc, argv, {"persons", "items", "support", "max_workers"});
  SocialGraphOptions opts;
  opts.num_persons =
      static_cast<VertexId>(flags.GetInt("persons", 120000));
  opts.num_items = static_cast<VertexId>(flags.GetInt("items", 30));
  opts.seed = 4242;
  const auto max_workers =
      static_cast<FragmentId>(flags.GetInt("max_workers", 8));

  auto g = GenerateSocialGraph(opts);
  GRAPE_CHECK(g.ok()) << g.status();

  GparQuery query;
  query.item = opts.num_persons;  // gid of item 0 ("Huawei Mate 9")
  query.support = flags.GetDouble("support", 0.8);
  query.min_followees = 3;

  PrintHeader("GPAR social media marketing on " +
              std::to_string(opts.num_persons) + " persons (support >= " +
              std::to_string(query.support) + ", no bad rating)");

  Report report("gpar");
  std::printf("%8s %10s %12s %8s %12s\n", "Workers", "Time(s)", "Comm",
              "Steps", "Candidates");
  double t1 = 0;
  size_t candidate_count = 0;
  GparOutput last;
  for (FragmentId n = 1; n <= max_workers; n *= 2) {
    FragmentedGraph fg = Fragmentize(*g, "hash", n);
    GrapeEngine<GparApp> engine(fg, GparApp{});
    auto out = engine.Run(query);
    GRAPE_CHECK(out.ok()) << out.status();
    if (n == 1) {
      t1 = engine.metrics().total_seconds;
      candidate_count = out->candidates.size();
    }
    GRAPE_CHECK(out->candidates.size() == candidate_count)
        << "answer must not depend on the worker count";
    std::printf("%8u %10.3f %12s %8u %12zu   (speedup %4.2fx)\n", n,
                engine.metrics().total_seconds,
                HumanBytes(engine.metrics().bytes).c_str(),
                engine.metrics().supersteps, out->candidates.size(),
                t1 / engine.metrics().total_seconds);
    report.Add(MetricsRow("GRAPE workers=" + std::to_string(n),
                          "gpar strong scaling", engine.metrics()));
    last = std::move(*out);
  }

  std::printf("\nTop potential customers (Fig. 4 result panel):\n");
  std::printf("%12s %12s %12s %14s\n", "Person", "Confidence", "Followees",
              "Recommending");
  for (size_t i = 0; i < std::min<size_t>(8, last.candidates.size()); ++i) {
    const GparCandidate& c = last.candidates[i];
    std::printf("%12u %12.3f %12u %14u\n", c.person, c.confidence,
                c.followees, c.recommending);
  }

  // Weak scaling: the per-person evaluation cost is tiny at in-process
  // latencies, so the "more workers => faster" guarantee shows up as the
  // ability to absorb proportionally more data per added worker ("scale-up"
  // in the paper's terms). Time per million persons should stay roughly
  // flat as persons and workers grow together.
  PrintHeader("GPAR weak scaling: persons grow with workers");
  std::printf("%8s %10s %10s %12s %16s\n", "Workers", "Persons", "Time(s)",
              "Comm", "s per 1M persons");
  for (FragmentId n = 1; n <= max_workers; n *= 2) {
    SocialGraphOptions wopts = opts;
    wopts.num_persons = 100000u * n;
    wopts.seed = 4242 + n;
    auto wg = GenerateSocialGraph(wopts);
    GRAPE_CHECK(wg.ok());
    GparQuery wq = query;
    wq.item = wopts.num_persons;
    FragmentedGraph fg = Fragmentize(*wg, "hash", n);
    GrapeEngine<GparApp> engine(fg, GparApp{});
    auto out = engine.Run(wq);
    GRAPE_CHECK(out.ok());
    std::printf("%8u %10u %10.3f %12s %16.3f\n", n, wopts.num_persons,
                engine.metrics().total_seconds,
                HumanBytes(engine.metrics().bytes).c_str(),
                engine.metrics().total_seconds * 1e6 / wopts.num_persons);
    report.Add(MetricsRow("GRAPE workers=" + std::to_string(n) +
                              " persons=" + std::to_string(wopts.num_persons),
                          "gpar weak scaling", engine.metrics()));
  }
  MaybeWriteJson(flags, report);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace grape

int main(int argc, char** argv) { return grape::bench::Run(argc, argv); }
