#include <cmath>
#include <numeric>

#include "apps/pagerank.h"
#include "apps/seq/seq_algorithms.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace grape {
namespace {

class PageRankPartitionTest
    : public ::testing::TestWithParam<FragmentId> {};

TEST_P(PageRankPartitionTest, MatchesSequentialPowerIteration) {
  RMatOptions opts;
  opts.scale = 9;
  opts.edge_factor = 6;
  opts.seed = 307;
  auto g = GenerateRMat(opts);
  ASSERT_TRUE(g.ok());

  PageRankConfig config;
  config.damping = 0.85;
  config.max_iterations = 30;
  config.epsilon = 0.0;  // fixed iteration count for exact comparability
  std::vector<double> expected = SeqPageRank(*g, config);

  FragmentedGraph fg = testing::MakeFragments(*g, "hash", GetParam());
  PageRankQuery query;
  query.damping = 0.85;
  query.max_iterations = 30;
  query.epsilon = 0.0;
  GrapeEngine<PageRankApp> engine(fg, PageRankApp{});
  auto out = engine.Run(query);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->rank.size(), g->num_vertices());
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    EXPECT_NEAR(out->rank[v], expected[v], 1e-10) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, PageRankPartitionTest,
                         ::testing::Values(FragmentId{1}, FragmentId{4},
                                           FragmentId{8}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(PageRankTest, EpsilonTerminationMatchesSequential) {
  RMatOptions opts;
  opts.scale = 8;
  opts.edge_factor = 8;
  opts.seed = 311;
  auto g = GenerateRMat(opts);
  ASSERT_TRUE(g.ok());

  PageRankConfig config;
  config.max_iterations = 200;
  config.epsilon = 1e-7;
  std::vector<double> expected = SeqPageRank(*g, config);

  FragmentedGraph fg = testing::MakeFragments(*g, "metis", 4);
  PageRankQuery query;
  query.max_iterations = 200;
  query.epsilon = 1e-7;
  GrapeEngine<PageRankApp> engine(fg, PageRankApp{});
  auto out = engine.Run(query);
  ASSERT_TRUE(out.ok());
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    // Per-fragment summation order may shift the termination round by one;
    // compare loosely.
    EXPECT_NEAR(out->rank[v], expected[v], 1e-6);
  }
}

// Early termination is decided at the coordinator (core/pie.h): PageRank's
// static hook reads only the query and the summed delta, and an app
// without the hook (SSSP) never stops early.
TEST(PageRankTest, TerminationHookReadsOnlyTheQuery) {
  PageRankQuery q;
  q.max_iterations = 5;
  q.epsilon = 1e-3;
  EXPECT_FALSE(AppShouldTerminate<PageRankApp>(q, 1, 0.0));  // PEval only
  EXPECT_TRUE(AppShouldTerminate<PageRankApp>(q, 2, 1e-4));
  EXPECT_FALSE(AppShouldTerminate<PageRankApp>(q, 2, 1.0));
  EXPECT_FALSE(AppShouldTerminate<PageRankApp>(q, 5, 1.0));
  EXPECT_TRUE(AppShouldTerminate<PageRankApp>(q, 6, 1.0));
  EXPECT_FALSE(AppShouldTerminate<SsspApp>(SsspQuery{0}, 1000, 0.0));
}

TEST(PageRankTest, SingleFragmentIteratesWithoutMessages) {
  // Regression test: with n=1 there are no border vertices at all, yet the
  // engine must keep scheduling IncEval until convergence — termination is
  // "no update parameter changed", not "no message in flight".
  auto g = GenerateCycle(50, /*directed=*/true);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "hash", 1);
  PageRankQuery query;
  query.max_iterations = 10;
  query.epsilon = 0.0;
  GrapeEngine<PageRankApp> engine(fg, PageRankApp{});
  auto out = engine.Run(query);
  ASSERT_TRUE(out.ok());
  // On a cycle, PageRank is uniform — and because uniform ranks are an
  // exact fixed point of the update, the engine may stop as soon as no
  // parameter changes (after the first IncEval at superstep 2).
  for (double r : out->rank) EXPECT_NEAR(r, 1.0 / 50, 1e-12);
  EXPECT_GE(engine.metrics().supersteps, 2u);
  EXPECT_LE(engine.metrics().supersteps, 11u);
}

TEST(PageRankTest, SingleFragmentRunsAllIterationsWhenNotConverged) {
  // A directed star keeps changing ranks every iteration, so a single
  // fragment must execute the full iteration budget.
  GraphBuilder builder(true);
  for (VertexId leaf = 1; leaf <= 9; ++leaf) {
    builder.AddEdge(leaf, 0);
    builder.AddEdge(0, leaf);
  }
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "hash", 1);
  PageRankQuery query;
  query.max_iterations = 10;
  query.epsilon = 0.0;
  GrapeEngine<PageRankApp> engine(fg, PageRankApp{});
  ASSERT_TRUE(engine.Run(query).ok());
  EXPECT_EQ(engine.metrics().supersteps, 11u);  // PEval + 10 iterations
}

TEST(PageRankTest, RankMassAccountsForDanglingPolicy) {
  // With dangling mass dropped, total mass is <= 1 and >= (1-d).
  RMatOptions opts;
  opts.scale = 8;
  opts.seed = 313;
  auto g = GenerateRMat(opts);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "hash", 4);
  PageRankQuery query;
  query.max_iterations = 40;
  GrapeEngine<PageRankApp> engine(fg, PageRankApp{});
  auto out = engine.Run(query);
  ASSERT_TRUE(out.ok());
  double mass = std::accumulate(out->rank.begin(), out->rank.end(), 0.0);
  EXPECT_LE(mass, 1.0 + 1e-9);
  EXPECT_GE(mass, 0.15);
  for (double r : out->rank) EXPECT_GT(r, 0.0);
}

TEST(PageRankTest, StarConcentratesRankAtCenter) {
  // Directed star: leaves point at the hub.
  GraphBuilder builder(true);
  for (VertexId leaf = 1; leaf <= 20; ++leaf) builder.AddEdge(leaf, 0);
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = testing::MakeFragments(*g, "hash", 3);
  PageRankQuery query;
  query.max_iterations = 20;
  GrapeEngine<PageRankApp> engine(fg, PageRankApp{});
  auto out = engine.Run(query);
  ASSERT_TRUE(out.ok());
  for (VertexId leaf = 1; leaf <= 20; ++leaf) {
    EXPECT_GT(out->rank[0], out->rank[leaf]);
  }
}

}  // namespace
}  // namespace grape
