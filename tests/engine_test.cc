#include <string>

#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace grape {
namespace {

TEST(EngineTest, MaxSuperstepsCapIsHonored) {
  // PageRank with an impossible epsilon would iterate forever without the
  // engine's cap; max_supersteps must stop it.
  RMatOptions opts;
  opts.scale = 7;
  opts.seed = 1001;
  auto g = GenerateRMat(opts);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "hash", 4);
  PageRankQuery query;
  query.max_iterations = 1000000;
  query.epsilon = 0.0;
  EngineOptions eopts;
  eopts.max_supersteps = 5;
  GrapeEngine<PageRankApp> engine(fg, PageRankApp{}, eopts);
  ASSERT_TRUE(engine.Run(query).ok());
  EXPECT_EQ(engine.metrics().supersteps, 5u);
}

TEST(EngineTest, MoreFragmentsThanVertices) {
  auto g = GeneratePath(3);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "hash", 10);
  GrapeEngine<SsspApp> engine(fg, SsspApp{});
  auto out = engine.Run(SsspQuery{0});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->dist[2], 2.0);
}

TEST(EngineTest, SourceOutsideGraphReachesNothing) {
  auto g = GeneratePath(5, /*directed=*/true);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "hash", 2);
  GrapeEngine<SsspApp> engine(fg, SsspApp{});
  auto out = engine.Run(SsspQuery{999});  // not a vertex
  ASSERT_TRUE(out.ok());
  for (double d : out->dist) EXPECT_EQ(d, kInfDistance);
  EXPECT_LE(engine.metrics().supersteps, 2u);
}

TEST(EngineTest, ParamsAccessorExposesConvergedValues) {
  auto g = GeneratePath(6, /*directed=*/true);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "range", 2);
  GrapeEngine<SsspApp> engine(fg, SsspApp{});
  ASSERT_TRUE(engine.Run(SsspQuery{0}).ok());
  for (FragmentId i = 0; i < fg.num_fragments(); ++i) {
    const Fragment& frag = fg.fragments[i];
    for (LocalId lid = 0; lid < frag.num_inner(); ++lid) {
      EXPECT_EQ(engine.params(i).Get(lid),
                static_cast<double>(frag.Gid(lid)));
    }
  }
}

TEST(EngineTest, RoundMetricsDecayMonotonicallyForSssp) {
  // The Fig. 1 fixed-point shape: once IncEval starts, per-round update
  // counts trend down on a road network (wavefront shrinks at the end).
  auto g = GenerateGridRoad(40, 40, 1013);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "grid2d", 4);
  GrapeEngine<SsspApp> engine(fg, SsspApp{});
  ASSERT_TRUE(engine.Run(SsspQuery{0}).ok());
  const auto& rounds = engine.metrics().rounds;
  ASSERT_GE(rounds.size(), 3u);
  // Final round ships nothing (fixed point).
  EXPECT_EQ(rounds.back().updated_params, 0u);
}

TEST(EngineTest, CheckMonotonicityCountsViolationsForNonMonotonicApp) {
  // PageRank's contributions move both ways; with a *monotonic* aggregator
  // this would be flagged. Its OverwriteAggregator is declared
  // non-monotonic, so the engine must report zero violations (the check
  // only applies where the Assurance Theorem does).
  RMatOptions opts;
  opts.scale = 7;
  opts.seed = 1019;
  auto g = GenerateRMat(opts);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "hash", 3);
  PageRankQuery query;
  query.max_iterations = 5;
  EngineOptions eopts;
  eopts.check_monotonicity = true;
  GrapeEngine<PageRankApp> engine(fg, PageRankApp{}, eopts);
  ASSERT_TRUE(engine.Run(query).ok());
  EXPECT_EQ(engine.metrics().monotonicity_violations, 0u);
}

TEST(EngineTest, CcOnEmptyEdgeSet) {
  GraphBuilder builder(false);
  for (VertexId v = 0; v < 7; ++v) builder.AddVertex(v);
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "hash", 3);
  GrapeEngine<CcApp> engine(fg, CcApp{});
  auto out = engine.Run(CcQuery{});
  ASSERT_TRUE(out.ok());
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(out->label[v], v);
}

TEST(EngineTest, BytesGrowWithWorkerCount) {
  // More fragments => more border => more communication (same query).
  auto g = GenerateGridRoad(40, 40, 1021);
  ASSERT_TRUE(g.ok());
  uint64_t prev = 0;
  for (FragmentId n : {1u, 4u, 16u}) {
    FragmentedGraph fg = testing::MakeFragments(*g, "grid2d", n);
    GrapeEngine<SsspApp> engine(fg, SsspApp{});
    ASSERT_TRUE(engine.Run(SsspQuery{0}).ok());
    EXPECT_GE(engine.metrics().bytes, prev);
    prev = engine.metrics().bytes;
  }
  EXPECT_GT(prev, 0u);
}

TEST(EngineTest, AblationTouchesWholeFragment) {
  // In full-re-evaluation mode the per-round updated count equals the
  // fragment sizes, demonstrating what boundedness saves.
  auto g = GenerateGridRoad(30, 30, 1031);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "grid2d", 4);

  GrapeEngine<SsspApp> inc(fg, SsspApp{});
  ASSERT_TRUE(inc.Run(SsspQuery{0}).ok());
  EngineOptions eopts;
  eopts.incremental = false;
  GrapeEngine<SsspApp> full(fg, SsspApp{}, eopts);
  ASSERT_TRUE(full.Run(SsspQuery{0}).ok());

  uint64_t inc_updates = 0;
  for (const auto& r : inc.metrics().rounds) inc_updates += r.updated_params;
  uint64_t full_updates = 0;
  for (const auto& r : full.metrics().rounds) {
    full_updates += r.updated_params;
  }
  EXPECT_GT(full_updates, inc_updates);
}

}  // namespace
}  // namespace grape
