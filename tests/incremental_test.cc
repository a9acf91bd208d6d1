// Incremental evaluation across graph updates (Sec. 2.1: IncEval computes
// Q(G ⊕ M) from Q(G)), the one way the engine offers it: a query session
// over in-thread inproc hosts answers Q(G), ApplyMutations carries M into
// the resident fragments, and RunIncremental re-answers from the converged
// state. Every delta is checked bit-identical to a from-scratch Run on
// G ⊕ M and against the apps/seq oracle.

#include <string>
#include <vector>

#include "apps/cc.h"
#include "apps/register_apps.h"
#include "apps/seq/seq_algorithms.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/mutation.h"
#include "gtest/gtest.h"
#include "rt/transport.h"
#include "tests/test_util.h"

namespace grape {
namespace {

using testing::BitEq;
using testing::RunSessionDelta;
using testing::SessionDelta;
using testing::TotalUpdates;

/// The session delta of `m` on `g` for a registered worker app, checked
/// for a bounded (non-fallback) answer.
template <typename App>
void RunDelta(const Graph& g, const MutationBatch& m,
              const std::string& strategy, FragmentId n,
              const std::string& remote_app,
              const typename App::QueryType& query, SessionDelta<App>* out) {
  RegisterBuiltinWorkerApps();
  EngineOptions eo;
  eo.remote_app = remote_app;
  ASSERT_NO_FATAL_FAILURE(
      RunSessionDelta<App>(g, m, strategy, n, query, eo, out));
  EXPECT_FALSE(out->delta_metrics.incremental_fallback);
}

TEST(IncrementalTest, SsspAfterEdgeInsertions) {
  auto g = GenerateGridRoad(30, 30, 1101);
  ASSERT_TRUE(g.ok());
  // A few shortcuts (both directions, as road segments).
  MutationBatch m;
  m.InsertEdge(5, 850, 1.0);
  m.InsertEdge(850, 5, 1.0);
  m.InsertEdge(12, 600, 0.5);
  m.InsertEdge(600, 12, 0.5);
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));

  SessionDelta<SsspApp> d;
  ASSERT_NO_FATAL_FAILURE(
      RunDelta(*g, m, "hash", 4, "sssp", SsspQuery{0}, &d));
  EXPECT_TRUE(BitEq(d.updated.dist, d.recompute.dist));
  std::vector<double> expected = SeqDijkstra(updated, 0);
  ASSERT_EQ(d.updated.dist.size(), updated.num_vertices());
  for (VertexId v = 0; v < updated.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(d.updated.dist[v], expected[v]) << "vertex " << v;
  }
}

TEST(IncrementalTest, WorkIsBoundedByAffectedRegion) {
  // A long-range shortcut changes only a neighbourhood of distances; the
  // incremental run must update far fewer parameters than recomputing.
  auto g = GenerateGridRoad(40, 40, 1103);
  ASSERT_TRUE(g.ok());
  // A mild shortcut near the far corner (small affected region).
  const VertexId far_corner = 40 * 40 - 1;
  MutationBatch m;
  m.InsertEdge(far_corner - 2, far_corner, 0.5);
  m.InsertEdge(far_corner, far_corner - 2, 0.5);
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));

  SessionDelta<SsspApp> d;
  ASSERT_NO_FATAL_FAILURE(
      RunDelta(*g, m, "grid2d", 4, "sssp", SsspQuery{0}, &d));
  EXPECT_TRUE(BitEq(d.updated.dist, d.recompute.dist));
  std::vector<double> expected = SeqDijkstra(updated, 0);
  for (VertexId v = 0; v < updated.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(d.updated.dist[v], expected[v]);
  }
  // |ΔO| for a tiny local change is orders below the initial evaluation.
  EXPECT_LT(TotalUpdates(d.delta_metrics),
            TotalUpdates(d.initial_metrics) / 10 + 10);
  EXPECT_LE(d.delta_metrics.supersteps, d.initial_metrics.supersteps + 1);
}

TEST(IncrementalTest, NoChangeConvergesImmediately) {
  auto g = GenerateGridRoad(20, 20, 1109);
  ASSERT_TRUE(g.ok());
  // An "update" that changes nothing: re-inserting an existing road with
  // its own weight and label (inserts are upserts).
  ASSERT_FALSE(g->OutNeighbors(0).empty());
  const Neighbor nb = g->OutNeighbors(0)[0];
  MutationBatch m;
  m.InsertEdge(0, nb.vertex, nb.weight, nb.label);

  SessionDelta<SsspApp> d;
  ASSERT_NO_FATAL_FAILURE(
      RunDelta(*g, m, "hash", 4, "sssp", SsspQuery{0}, &d));
  EXPECT_LE(d.delta_metrics.supersteps, 2u);
  EXPECT_TRUE(BitEq(d.updated.dist, d.initial.dist));
  EXPECT_TRUE(BitEq(d.updated.dist, d.recompute.dist));
  std::vector<double> expected = SeqDijkstra(*g, 0);
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(d.updated.dist[v], expected[v]);
  }
}

TEST(IncrementalTest, CcAfterComponentMerge) {
  // Two islands; an inserted bridge merges them. Incremental CC must
  // relabel only the island with the larger minimum.
  GraphBuilder builder(false);
  auto a = GenerateRandomTree(40, 1117, false);
  ASSERT_TRUE(a.ok());
  for (const Edge& e : a->ToEdgeList()) builder.AddEdge(e);
  auto b = GenerateRandomTree(30, 1123, false);
  ASSERT_TRUE(b.ok());
  for (const Edge& e : b->ToEdgeList()) {
    builder.AddEdge(e.src + 40, e.dst + 40, e.weight);
  }
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  MutationBatch m;
  m.InsertEdge(10, 55, 1.0);
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));

  SessionDelta<CcApp> d;
  ASSERT_NO_FATAL_FAILURE(
      RunDelta(*g, m, "hash", 3, "cc", CcQuery{}, &d));
  EXPECT_EQ(d.initial.label[45], 40u);  // second island's min id
  EXPECT_TRUE(BitEq(d.updated.label, d.recompute.label));
  std::vector<VertexId> expected = SeqConnectedComponents(updated);
  for (VertexId v = 0; v < updated.num_vertices(); ++v) {
    EXPECT_EQ(d.updated.label[v], expected[v]) << "vertex " << v;
  }
  EXPECT_EQ(d.updated.label[55], 0u);
}

}  // namespace
}  // namespace grape
