// Streaming graph updates (graph/mutation.h + the engine's mutation API):
//
//  1. Mutation semantics at the Graph level — RemoveEdge, upsert inserts,
//     delete-all-matches, validation, wire round-trip.
//  2. Fragment-level patches — MutateFragmentedGraph produces fragments
//     byte-identical to a from-scratch FragmentBuilder::Build over the
//     mutated graph, routing plan included, over a graph x partitioner x
//     fragment-count matrix and three stacked batches.
//  3. The differential gate — SessionRun + ApplyMutations +
//     RunIncremental answers bit-identical to a from-scratch recompute
//     after EVERY batch, for {sssp, cc} x {inproc, tcp} x
//     {coordinator-loaded, distributed-loaded}, with a deletion batch
//     that must trip the enforced fallback on every cell.
//  4. The session delta with and without the incremental ablation, and
//     the enforced fallback for a non-monotonic aggregator.

#include <unistd.h>

#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/cc.h"
#include "apps/ms_sssp.h"
#include "apps/pagerank.h"
#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/mutation.h"
#include "gtest/gtest.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "rt/distributed_load.h"
#include "rt/remote_worker.h"
#include "tests/test_util.h"

namespace grape {
namespace {

using testing::BitEq;
using testing::MakeFragments;
using testing::RunSessionDelta;
using testing::SessionDelta;
using testing::TotalUpdates;

std::vector<uint8_t> FragmentBytes(const Fragment& frag) {
  Encoder enc;
  frag.EncodeTo(enc);
  return enc.TakeBuffer();
}

// --------------------------------------------------------- graph semantics

TEST(MutationTest, RemoveEdgeIsAddEdgesInverse) {
  GraphBuilder b(/*directed=*/false);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(2, 3, 1.0);
  // Undirected: either orientation names the edge.
  EXPECT_EQ(b.RemoveEdge(2, 1), 1u);
  EXPECT_EQ(b.RemoveEdge(2, 1), 0u);  // already gone
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 4u);  // two undirected edges, stored twice

  GraphBuilder d(/*directed=*/true);
  d.AddEdge(0, 1, 1.0);
  d.AddEdge(1, 0, 1.0);
  // Directed: orientation matters, the reverse arc survives.
  EXPECT_EQ(d.RemoveEdge(0, 1), 1u);
  auto gd = std::move(d).Build();
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->num_edges(), 1u);
}

TEST(MutationTest, InsertIsUpsertAndDeleteRemovesAllMatches) {
  GraphBuilder b(/*directed=*/true);
  b.AddEdge(0, 1, 1.0, 7);
  b.AddEdge(1, 2, 2.0);
  auto g = std::move(b).Build(4);
  ASSERT_TRUE(g.ok());

  MutationBatch m;
  m.InsertEdge(0, 1, 5.0, 9);  // existing edge: weight+label replaced
  m.InsertEdge(2, 3, 0.5);     // genuinely new
  m.DeleteEdge(1, 2);
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));

  EXPECT_EQ(updated.num_vertices(), 4u);
  std::vector<Edge> edges = updated.ToEdgeList();
  ASSERT_EQ(edges.size(), 2u);
  bool saw01 = false, saw23 = false;
  for (const Edge& e : edges) {
    if (e.src == 0 && e.dst == 1) {
      saw01 = true;
      EXPECT_DOUBLE_EQ(e.weight, 5.0);
      EXPECT_EQ(e.label, 9u);
    }
    if (e.src == 2 && e.dst == 3) saw23 = true;
  }
  EXPECT_TRUE(saw01);
  EXPECT_TRUE(saw23);
}

TEST(MutationTest, ValidateRejectsMalformedOps) {
  MutationBatch loop;
  loop.InsertEdge(2, 2, 1.0);
  EXPECT_TRUE(loop.Validate(10).IsInvalidArgument());

  MutationBatch range;
  range.DeleteEdge(0, 999);
  EXPECT_TRUE(range.Validate(10).IsInvalidArgument());

  // The vertex universe is fixed per epoch: endpoints must already exist.
  MutationBatch grow;
  grow.InsertEdge(0, 10, 1.0);
  EXPECT_TRUE(grow.Validate(10).IsInvalidArgument());
  EXPECT_TRUE(grow.Validate(11).ok());
}

TEST(MutationTest, BatchWireRoundTrip) {
  MutationBatch m;
  m.InsertEdge(1, 2, 3.5, 4);
  m.DeleteEdge(5, 6);
  m.InsertEdge(7, 8, 0.25);
  EXPECT_TRUE(m.has_deletions());
  EXPECT_EQ(m.TouchedVertices(),
            (std::vector<VertexId>{1, 2, 5, 6, 7, 8}));

  Encoder enc;
  m.EncodeTo(enc);
  Decoder dec(enc.buffer());
  MutationBatch back;
  ASSERT_OK(MutationBatch::DecodeFrom(dec, &back));
  ASSERT_EQ(back.size(), m.size());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(back.ops[i].op, m.ops[i].op);
    EXPECT_EQ(back.ops[i].edge.src, m.ops[i].edge.src);
    EXPECT_EQ(back.ops[i].edge.dst, m.ops[i].edge.dst);
    EXPECT_DOUBLE_EQ(back.ops[i].edge.weight, m.ops[i].edge.weight);
    EXPECT_EQ(back.ops[i].edge.label, m.ops[i].edge.label);
  }
}

// ------------------------------------------------------- fragment patches

// The in-place fragment patch must be indistinguishable — topology,
// labels, border flags, gid index, the complete routing plan — from
// partitioning the mutated graph from scratch with the same assignment,
// over three stacked batches that hit every branch of the patch.

struct PatchCase {
  std::string graph;     // "grid" (undirected) | "rmat" | "labeled"
  std::string strategy;  // partitioner name
  FragmentId fragments;
};

/// `g` with one edge per endpoint pair (per unordered pair when
/// `directed` is false, which also turns a two-arc road grid into an
/// undirected one). GraphBuilder sorts each row with an unstable sort, so
/// parallel edges have no reproducible order to compare bytes against.
Graph Simplified(const Graph& g, bool directed) {
  std::set<std::pair<VertexId, VertexId>> seen;
  GraphBuilder b(directed);
  for (const Edge& e : g.ToEdgeList()) {
    const VertexId s = directed ? e.src : std::min(e.src, e.dst);
    const VertexId d = directed ? e.dst : std::max(e.src, e.dst);
    if (seen.emplace(s, d).second) b.AddEdge(Edge{s, d, e.weight, e.label});
  }
  if (g.has_vertex_labels()) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      b.SetVertexLabel(v, g.vertex_label(v));
    }
  }
  b.AddVertex(g.num_vertices() - 1);
  auto out = std::move(b).Build(g.num_vertices());
  EXPECT_TRUE(out.ok()) << out.status();
  return std::move(out).value();
}

Graph PatchCaseGraph(const std::string& kind) {
  Result<Graph> g = Status::InvalidArgument("unknown graph kind " + kind);
  if (kind == "grid") g = GenerateGridRoad(12, 12, 4242);
  if (kind == "rmat") {
    RMatOptions o;
    o.scale = 9;
    o.edge_factor = 4;
    o.seed = 31;
    g = GenerateRMat(o);
  }
  if (kind == "labeled") {
    LabeledGraphOptions o;
    o.scale = 8;
    o.edge_factor = 4;
    g = GenerateLabeledGraph(o);
  }
  EXPECT_TRUE(g.ok()) << g.status();
  return Simplified(*g, /*directed=*/kind != "grid");
}

bool HasEdge(const Graph& g, VertexId s, VertexId d) {
  for (const Neighbor& nb : g.OutNeighbors(s)) {
    if (nb.vertex == d) return true;
  }
  return false;
}

/// The distinct foreign neighbours of inner vertex `lid`, in either
/// direction.
std::vector<VertexId> ForeignNeighbors(const Fragment& f, LocalId lid) {
  std::set<VertexId> out;
  for (const FragNeighbor& nb : f.OutNeighbors(lid)) {
    if (f.IsOuter(nb.local)) out.insert(f.Gid(nb.local));
  }
  for (const FragNeighbor& nb : f.InNeighbors(lid)) {
    if (f.IsOuter(nb.local)) out.insert(f.Gid(nb.local));
  }
  return {out.begin(), out.end()};
}

/// G ⊕ M as fragment `before` can know it: a vertex it did not hold gets
/// label 0, which is what MutateFragment gives a vertex that first becomes
/// outer. Unlabelled graphs are returned unchanged.
Graph LabelsAsSeenBy(const Graph& g, const Fragment& before) {
  if (!g.has_vertex_labels()) return Simplified(g, g.is_directed());
  std::vector<Label> seen(g.num_vertices(), 0);
  for (LocalId l = 0; l < before.num_local(); ++l) {
    seen[before.Gid(l)] = before.vertex_label(l);
  }
  GraphBuilder b(g.is_directed());
  for (const Edge& e : g.ToEdgeList()) b.AddEdge(e);
  for (VertexId v = 0; v < g.num_vertices(); ++v) b.SetVertexLabel(v, seen[v]);
  auto out = std::move(b).Build(g.num_vertices());
  EXPECT_TRUE(out.ok()) << out.status();
  return std::move(out).value();
}

class MutationPatchTest : public ::testing::TestWithParam<PatchCase> {};

TEST_P(MutationPatchTest, MutatedFragmentsBitIdenticalToRebuild) {
  const PatchCase& c = GetParam();
  Graph current = PatchCaseGraph(c.graph);
  const bool directed = current.is_directed();
  auto partitioner = MakePartitioner(c.strategy);
  ASSERT_TRUE(partitioner.ok()) << partitioner.status();
  ASSERT_OK_AND_ASSIGN(std::vector<FragmentId> owner,
                       (*partitioner)->Partition(current, c.fragments));
  ASSERT_OK_AND_ASSIGN(FragmentedGraph fg,
                       FragmentBuilder::Build(current, owner, c.fragments));

  // Batch 0 targets fragment 0. u: an inner vertex with the fewest
  // foreign neighbours. mid: a foreign vertex fragment 0 does not hold
  // whose gid falls inside its outer range, so linking u to it inserts an
  // outer vertex mid-range and shifts the outer lids after it.
  const Fragment& f0 = fg.fragments[0];
  ASSERT_GT(f0.num_inner(), 2u);
  ASSERT_GT(f0.num_outer(), 2u);
  LocalId lu = 0;
  for (LocalId i = 1; i < f0.num_inner(); ++i) {
    if (ForeignNeighbors(f0, i).size() < ForeignNeighbors(f0, lu).size()) {
      lu = i;
    }
  }
  const VertexId u = f0.Gid(lu);
  VertexId mid = kInvalidVertex;
  for (VertexId g = f0.Gid(f0.num_inner() + f0.num_outer() / 2) + 1;
       g < f0.Gid(f0.num_local() - 1); ++g) {
    if (!f0.HasVertex(g)) {
      mid = g;
      break;
    }
  }
  ASSERT_NE(mid, kInvalidVertex) << "no gap in fragment 0's outer range";

  // a -> o: an existing inner-outer edge with a != u, to upsert.
  VertexId a = kInvalidVertex, o = kInvalidVertex;
  for (LocalId i = 0; i < f0.num_inner() && a == kInvalidVertex; ++i) {
    if (i == lu) continue;
    for (const FragNeighbor& nb : f0.OutNeighbors(i)) {
      if (f0.IsOuter(nb.local)) {
        a = f0.Gid(i);
        o = f0.Gid(nb.local);
        break;
      }
    }
  }
  ASSERT_NE(a, kInvalidVertex) << "fragment 0 has no inner-outer edge";

  // p -- q inside fragment 0, and r -- t inside fragment 1 (foreign to
  // fragment 0): absent edges to insert.
  auto absent_pair = [&](FragmentId f, VertexId* x, VertexId* y) {
    std::vector<VertexId> inner;
    for (VertexId v = 0; v < current.num_vertices(); ++v) {
      if (owner[v] == f) inner.push_back(v);
    }
    for (VertexId s : inner) {
      for (VertexId d : inner) {
        if (s != d && !HasEdge(current, s, d) && !HasEdge(current, d, s)) {
          *x = s;
          *y = d;
          return true;
        }
      }
    }
    return false;
  };
  VertexId p = 0, q = 0, r = 0, t = 0;
  ASSERT_TRUE(absent_pair(0, &p, &q));
  ASSERT_TRUE(absent_pair(1, &r, &t));

  for (int bi = 0; bi < 3; ++bi) {
    const Fragment& before0 = fg.fragments[0];
    MutationBatch m;
    if (bi == 0) {
      m.InsertEdge(u, mid, 2.0, 3);  // new outer vertex, mid-range
      if (directed) {
        m.InsertEdge(a, o, 7.0, 5);  // upsert in place
      } else {
        m.InsertEdge(o, a, 7.0, 5);  // upsert, matched in either orientation
      }
      m.InsertEdge(p, q, 4.0, 1);  // inner-inner in fragment 0
      m.InsertEdge(r, t, 6.0, 2);  // both endpoints foreign to fragment 0
    } else if (bi == 1) {
      // Cut every edge between u and the outside: mid loses its last
      // edge into fragment 0 (the outer vertex vanishes), u stops being a
      // border vertex.
      for (VertexId y : ForeignNeighbors(before0, before0.Lid(u))) {
        m.DeleteEdge(u, y);
        m.DeleteEdge(y, u);
      }
      m.InsertEdge(a, o, 8.0, 6);  // upsert again
    } else {
      m.InsertEdge(mid, u, 3.0, 4);  // mid returns, in the other direction
      m.DeleteEdge(p, q);            // inner-inner deletion
      m.DeleteEdge(r, t);
      m.DeleteEdge(q, p);  // absent (directed) or already gone: a no-op
    }

    std::vector<std::vector<uint8_t>> input_bytes;
    for (const Fragment& f : fg.fragments) {
      input_bytes.push_back(FragmentBytes(f));
      ASSERT_TRUE(FragmentBuilder::MutateFragment(f, m).ok());
      EXPECT_EQ(FragmentBytes(f), input_bytes.back())
          << "batch " << bi << ": MutateFragment changed its input";
    }
    std::vector<Graph> seen_by;
    for (const Fragment& f : fg.fragments) {
      seen_by.push_back(LabelsAsSeenBy(current, f));
    }
    ASSERT_OK(FragmentBuilder::MutateFragmentedGraph(&fg, m));
    ASSERT_OK_AND_ASSIGN(current, ApplyMutations(current, m));

    for (FragmentId f = 0; f < fg.num_fragments(); ++f) {
      ASSERT_OK_AND_ASSIGN(Graph seen_next, ApplyMutations(seen_by[f], m));
      ASSERT_OK_AND_ASSIGN(
          FragmentedGraph ref,
          FragmentBuilder::Build(seen_next, owner, c.fragments));
      const Fragment& got = fg.fragments[f];
      const Fragment& want = ref.fragments[f];
      EXPECT_EQ(FragmentBytes(got), FragmentBytes(want))
          << "batch " << bi << ", fragment " << f;
      for (VertexId v = 0; v < current.num_vertices(); ++v) {
        ASSERT_EQ(got.Lid(v), want.Lid(v))
            << "batch " << bi << ", fragment " << f << ", gid " << v;
      }
    }

    const Fragment& f0_now = fg.fragments[0];
    if (bi == 0) {
      EXPECT_TRUE(f0_now.HasVertex(mid));
      EXPECT_TRUE(f0_now.IsBorder(f0_now.Lid(u)));
    } else if (bi == 1) {
      EXPECT_FALSE(f0_now.HasVertex(mid));
      EXPECT_FALSE(f0_now.IsBorder(f0_now.Lid(u)));
    } else {
      EXPECT_TRUE(f0_now.HasVertex(mid));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MutationPatchTest,
    ::testing::Values(PatchCase{"grid", "metis", 2},
                      PatchCase{"grid", "metis", 4},
                      PatchCase{"grid", "hash", 2},
                      PatchCase{"grid", "hash", 4},
                      PatchCase{"rmat", "hash", 2},
                      PatchCase{"rmat", "hash", 4},
                      PatchCase{"labeled", "metis", 2},
                      PatchCase{"labeled", "metis", 4}),
    [](const ::testing::TestParamInfo<PatchCase>& info) {
      return info.param.graph + "_" + info.param.strategy + "_" +
             std::to_string(info.param.fragments);
    });

// -------------------------------------------------------- differential gate

struct RemoteGateCase {
  std::string transport;
  std::string app;       // "sssp" | "cc"
  bool distributed;      // worker-built fragments vs coordinator-shipped
};

std::string CaseName(const ::testing::TestParamInfo<RemoteGateCase>& info) {
  return info.param.app + "_" + info.param.transport +
         (info.param.distributed ? "_distributed" : "_coordinator");
}

std::vector<RemoteGateCase> AllRemoteGateCases() {
  std::vector<RemoteGateCase> cases;
  for (const char* t : {"inproc", "tcp"}) {
    for (const char* a : {"sssp", "cc"}) {
      for (bool d : {false, true}) {
        cases.push_back(RemoteGateCase{t, a, d});
      }
    }
  }
  return cases;
}

/// The three-batch stream every cell replays: two stacked insert-only
/// batches (bounded deltas), then a deletion batch that must trip the
/// enforced fallback.
std::vector<MutationBatch> GateBatches() {
  std::vector<MutationBatch> batches(3);
  batches[0].InsertEdge(3, 140, 0.25);
  batches[0].InsertEdge(140, 3, 0.25);
  batches[1].InsertEdge(60, 100, 0.125);
  batches[1].InsertEdge(100, 60, 0.125);
  batches[2].DeleteEdge(3, 140);
  batches[2].DeleteEdge(140, 3);
  return batches;
}

template <typename App, typename Query, typename GetVec>
void RunRemoteGate(const RemoteGateCase& c, const Query& query, GetVec get) {
  RegisterBuiltinWorkerApps();
  auto g0 = GenerateGridRoad(12, 12, 77);
  ASSERT_TRUE(g0.ok());
  Graph graph = std::move(*g0);

  auto world = MakeTransport(c.transport, 4);
  ASSERT_TRUE(world.ok()) << world.status();
  EngineOptions eo;
  eo.transport = world->get();
  eo.remote_app = c.app;

  std::optional<GrapeEngine<App>> engine;
  FragmentedGraph fg;
  DistributedGraphMeta meta;
  std::string path;
  if (c.distributed) {
    path = ::testing::TempDir() + "/grape_mut_" + c.app + "_" + c.transport +
           "_" + std::to_string(getpid()) + ".txt";
    ASSERT_OK(SaveEdgeListFile(graph, path));
    DistributedLoadOptions opt;
    opt.path = path;
    opt.format.directed = graph.is_directed();
    opt.format.has_weight = true;
    opt.format.has_label = true;
    ASSERT_OK_AND_ASSIGN(meta, DistributedLoad(world->get(), opt));
    engine.emplace(meta, eo);
  } else {
    fg = MakeFragments(graph, "hash", 3);
    if (c.transport == "inproc") {
      // Inproc endpoints share this process's ResidentFragmentStore: a
      // deposit the test owns lets the check below read what each worker
      // patched.
      ASSERT_OK_AND_ASSIGN(meta, DepositFragments(world->get(), fg));
      engine.emplace(meta, eo);
    } else {
      engine.emplace(fg, App{}, eo);
    }
  }
  const uint64_t token = meta.token;  // 0: the engine deposits fg itself

  auto base = engine->SessionRun(query);
  ASSERT_TRUE(base.ok()) << base.status();

  // Graph is move-only: regenerate the reference copy (same seed).
  auto current_r = GenerateGridRoad(12, 12, 77);
  ASSERT_TRUE(current_r.ok());
  Graph current = std::move(*current_r);
  const std::vector<MutationBatch> batches = GateBatches();
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const MutationBatch& m = batches[bi];
    ASSERT_OK(engine->ApplyMutations(m).status());
    auto inc = engine->RunIncremental(query, m);
    ASSERT_TRUE(inc.ok()) << "batch " << bi << ": " << inc.status();
    EXPECT_EQ(engine->metrics().incremental_fallback, m.has_deletions())
        << "batch " << bi;

    // The differential gate: bit-identical to a from-scratch recompute
    // of the mutated graph.
    ASSERT_OK_AND_ASSIGN(current, ApplyMutations(current, m));
    FragmentedGraph ref_fg = MakeFragments(current, "hash", 3);
    GrapeEngine<App> ref(ref_fg, App{});
    auto full = ref.Run(query);
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_TRUE(BitEq(get(*inc), get(*full))) << "batch " << bi;

    // Worker side: each endpoint's patched fragment equals a fresh build
    // of G ⊕ M under the same owner table.
    if (c.transport != "inproc") continue;
    for (uint32_t rank = 1; rank <= 3; ++rank) {
      std::shared_ptr<const Fragment> held =
          ResidentFragmentStore::Global().Get(token, rank);
      ASSERT_NE(held, nullptr) << "batch " << bi << ", rank " << rank;
      std::vector<FragmentId> owner(current.num_vertices());
      for (VertexId v = 0; v < owner.size(); ++v) owner[v] = held->OwnerOf(v);
      ASSERT_OK_AND_ASSIGN(FragmentedGraph fresh,
                           FragmentBuilder::Build(current, owner, 3));
      EXPECT_EQ(FragmentBytes(*held), FragmentBytes(fresh.fragments[rank - 1]))
          << "batch " << bi << ", rank " << rank;
    }
  }
  engine->EndSession();
  if (token != 0) ReleaseResident(world->get(), token);
  if (!path.empty()) std::remove(path.c_str());
}

class MutationRemoteGateTest
    : public ::testing::TestWithParam<RemoteGateCase> {};

TEST_P(MutationRemoteGateTest, IncrementalBitIdenticalToRecompute) {
  const RemoteGateCase& c = GetParam();
  if (c.app == "sssp") {
    RunRemoteGate<SsspApp>(c, SsspQuery{0},
                           [](const SsspOutput& o) { return o.dist; });
  } else {
    RunRemoteGate<CcApp>(c, CcQuery{},
                         [](const CcOutput& o) { return o.label; });
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, MutationRemoteGateTest,
                         ::testing::ValuesIn(AllRemoteGateCases()), CaseName);

// ------------------------------------------------ session delta variants

// An app whose global aggregate is the size of its last IncEval input
// (|M_i|, or the whole fragment under the ablation), so RoundMetrics::global
// on the delta shows what each round re-evaluated.
template <typename Base>
struct IncEvalInputReporting : Base {
  template <typename Query, typename Params>
  void IncEval(const Query& query, const Fragment& frag, Params& params,
               const std::vector<LocalId>& updated) {
    inputs_ = updated.size();
    Base::IncEval(query, frag, params, updated);
  }
  double GlobalValue() const { return static_cast<double>(inputs_); }

 private:
  size_t inputs_ = 0;
};

/// The 12x12 gate grid cut into two 72-vertex islands (rows 0-5 and
/// 6-11), so GateBatches()[0]'s 3 <-> 140 bridge changes both SSSP
/// distances (the far island becomes reachable) and CC labels.
Graph SplitGateGrid() {
  auto grid = GenerateGridRoad(12, 12, 77);
  EXPECT_TRUE(grid.ok()) << grid.status();
  GraphBuilder builder(grid->is_directed());
  for (const Edge& e : grid->ToEdgeList()) {
    if ((e.src < 72) == (e.dst < 72)) builder.AddEdge(e);
  }
  auto g = std::move(builder).Build(grid->num_vertices());
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

/// One insert batch answered by two sessions on inproc, one per setting of
/// EngineOptions::incremental (false is the ablation: every IncEval, the
/// warm start's included, re-evaluates its whole fragment). Both deltas
/// are bounded (no fallback) and bit-identical to a from-scratch Run on
/// G ⊕ M, and each round's global aggregate (the workers' summed IncEval
/// inputs) equals its updated_params. The ablation re-evaluates every
/// vertex in every round, the first included; the incremental delta
/// updates strictly fewer parameters than the ablation and than the
/// initial run.
template <typename App, typename Query, typename GetVec>
void CheckSessionDelta(const char* remote_app, const Query& query,
                       GetVec get) {
  const Graph g = SplitGateGrid();
  const MutationBatch m = GateBatches()[0];
  SessionDelta<App> delta[2];  // [0]: ablation, [1]: incremental
  for (bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "ablation");
    EngineOptions eo;
    eo.incremental = incremental;
    eo.remote_app = remote_app;
    SessionDelta<App>& d = delta[incremental];
    ASSERT_NO_FATAL_FAILURE(
        RunSessionDelta<App>(g, m, "hash", 3, query, eo, &d));
    EXPECT_TRUE(BitEq(get(d.updated), get(d.recompute)));
    const EngineMetrics& dm = d.delta_metrics;
    EXPECT_FALSE(dm.incremental_fallback);
    ASSERT_GE(dm.rounds.size(), 2u);
    for (size_t r = 0; r < dm.rounds.size(); ++r) {
      EXPECT_EQ(dm.rounds[r].global,
                static_cast<double>(dm.rounds[r].updated_params))
          << "round " << r + 1;
      if (!incremental) {
        EXPECT_EQ(dm.rounds[r].updated_params, g.num_vertices())
            << "round " << r + 1;
      }
    }
  }
  const uint64_t incremental = TotalUpdates(delta[1].delta_metrics);
  EXPECT_LT(incremental, TotalUpdates(delta[0].delta_metrics));
  EXPECT_LT(incremental, TotalUpdates(delta[1].initial_metrics));
}

class SessionDeltaTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SessionDeltaTest, BoundedAndAblated) {
  if (GetParam() == "sssp") {
    CheckSessionDelta<IncEvalInputReporting<SsspApp>>(
        "input_sssp", SsspQuery{0},
        [](const SsspOutput& o) { return o.dist; });
  } else {
    CheckSessionDelta<IncEvalInputReporting<CcApp>>(
        "input_cc", CcQuery{}, [](const CcOutput& o) { return o.label; });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SessionDeltaTest, ::testing::Values("sssp", "cc"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// A non-monotonic aggregator has no order to warm-start along: the delta
// must take the enforced full-run fallback over the session, and flag it,
// rather than run PageRank's IncEval from a stale rank vector.
TEST(MutationTest, NonMonotonicDeltaTakesEnforcedFallback) {
  RegisterBuiltinWorkerApps();
  auto g = GenerateGridRoad(10, 10, 913);
  ASSERT_TRUE(g.ok());
  MutationBatch m;
  m.InsertEdge(5, 90, 1.0);
  m.InsertEdge(90, 5, 1.0);
  EngineOptions eo;
  eo.remote_app = "pagerank";
  SessionDelta<PageRankApp> d;
  ASSERT_NO_FATAL_FAILURE(RunSessionDelta<PageRankApp>(
      *g, m, "hash", 3, PageRankQuery{}, eo, &d));
  EXPECT_TRUE(d.delta_metrics.incremental_fallback)
      << "a non-monotonic aggregator warm-started anyway";
  EXPECT_TRUE(BitEq(d.updated.rank, d.recompute.rank));
}

// An app with private state beside its parameter store (ms_sssp's flat
// lane array) cannot warm-start either: a mutation re-seats its worker
// slots with a fresh app, so the delta must take the same enforced
// fallback, and every lane must equal a fresh run on G ⊕ M.
TEST(MutationTest, PrivateStateDeltaTakesEnforcedFallback) {
  RegisterBuiltinWorkerApps();
  const Graph g = SplitGateGrid();
  const MutationBatch m = GateBatches()[0];
  ASSERT_FALSE(m.has_deletions());
  EngineOptions eo;
  eo.remote_app = "ms_sssp";
  MsSsspQuery query;
  query.sources = {0, 3, 140};
  SessionDelta<MsSsspApp> d;
  ASSERT_NO_FATAL_FAILURE(
      RunSessionDelta<MsSsspApp>(g, m, "hash", 3, query, eo, &d));
  EXPECT_TRUE(d.delta_metrics.incremental_fallback)
      << "an app with private state warm-started anyway";
  ASSERT_EQ(d.updated.dist.size(), query.sources.size());
  for (size_t k = 0; k < query.sources.size(); ++k) {
    EXPECT_TRUE(BitEq(d.updated.dist[k], d.recompute.dist[k])) << "lane " << k;
  }
  // The bridge joins the islands: lane 0 newly reaches vertex 140.
  EXPECT_EQ(d.initial.dist[0][140], kInfDistance);
  EXPECT_LT(d.updated.dist[0][140], kInfDistance);
}

// Two sessions of different apps stay live on one world, each warm in its
// own app slot over the endpoints' one resident fragment: one
// ApplyMutations re-seats both, each then re-answers by a bounded delta,
// and retiring one session leaves the other answering.
TEST(MutationTest, TwoLiveSessionsShareOneWorld) {
  RegisterBuiltinWorkerApps();
  auto g = GenerateGridRoad(12, 12, 77);
  ASSERT_TRUE(g.ok());
  const MutationBatch m = GateBatches()[0];
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));
  FragmentedGraph fg_new = MakeFragments(updated, "hash", 3);
  GrapeEngine<SsspApp> ref_sssp(fg_new, SsspApp{});
  auto want_sssp = ref_sssp.Run(SsspQuery{0});
  ASSERT_TRUE(want_sssp.ok()) << want_sssp.status();
  GrapeEngine<CcApp> ref_cc(fg_new, CcApp{});
  auto want_cc = ref_cc.Run(CcQuery{});
  ASSERT_TRUE(want_cc.ok()) << want_cc.status();

  for (const char* transport : {"inproc", "tcp"}) {
    SCOPED_TRACE(transport);
    FragmentedGraph fg = MakeFragments(*g, "hash", 3);
    auto world = MakeTransport(transport, 4);
    ASSERT_TRUE(world.ok()) << world.status();

    // One deposit; both engines attach to those very fragments.
    ASSERT_OK_AND_ASSIGN(DistributedGraphMeta meta,
                         DepositFragments(world->get(), fg));
    EngineOptions so;
    so.transport = world->get();
    so.remote_app = "sssp";
    GrapeEngine<SsspApp> sssp(meta, so);
    ASSERT_TRUE(sssp.SessionRun(SsspQuery{0}).ok());
    EngineOptions co;
    co.transport = world->get();
    co.remote_app = "cc";
    GrapeEngine<CcApp> cc(meta, co);
    ASSERT_TRUE(cc.SessionRun(CcQuery{}).ok());

    // One batch, carried by the CC engine, re-seats both slots.
    ASSERT_OK_AND_ASSIGN(std::vector<WkBuildAck> shapes, cc.ApplyMutations(m));
    sssp.RefreshShapes(shapes);
    auto sssp_inc = sssp.RunIncremental(SsspQuery{0}, m);
    ASSERT_TRUE(sssp_inc.ok()) << sssp_inc.status();
    EXPECT_FALSE(sssp.metrics().incremental_fallback);
    EXPECT_TRUE(BitEq(sssp_inc->dist, want_sssp->dist));
    auto cc_inc = cc.RunIncremental(CcQuery{}, m);
    ASSERT_TRUE(cc_inc.ok()) << cc_inc.status();
    EXPECT_FALSE(cc.metrics().incremental_fallback);
    EXPECT_TRUE(BitEq(cc_inc->label, want_cc->label));

    // Retiring the SSSP slot leaves the CC slot warm.
    sssp.EndSession();
    auto cc_again = cc.SessionRun(CcQuery{});
    ASSERT_TRUE(cc_again.ok()) << cc_again.status();
    EXPECT_TRUE(BitEq(cc_again->label, want_cc->label));
    cc.EndSession();
    ReleaseResident(world->get(), meta.token);
  }
}

// The mutation API needs no live session, only resident fragments: a
// coordinator-loaded engine deposits them first, and its next cold load
// attaches to the patched copy. Local engines reject it outright.
TEST(MutationTest, ApplyMutationsPatchesTheResidentCopy) {
  RegisterBuiltinWorkerApps();
  auto g = GenerateGridRoad(6, 6, 5);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = MakeFragments(*g, "hash", 3);
  auto world = MakeTransport("inproc", 4);
  ASSERT_TRUE(world.ok());
  EngineOptions eo;
  eo.transport = world->get();
  eo.remote_app = "sssp";
  GrapeEngine<SsspApp> engine(fg, SsspApp{}, eo);
  MutationBatch m;
  m.InsertEdge(0, 35, 1.0);
  MutationBatch out_of_range;
  out_of_range.InsertEdge(0, 36, 1.0);
  EXPECT_TRUE(engine.ApplyMutations(out_of_range).status().IsInvalidArgument());
  ASSERT_OK(engine.ApplyMutations(m).status());
  auto patched = engine.SessionRun(SsspQuery{0});
  ASSERT_TRUE(patched.ok()) << patched.status();
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));
  FragmentedGraph fg_new = MakeFragments(updated, "hash", 3);
  GrapeEngine<SsspApp> ref(fg_new, SsspApp{});
  auto want = ref.Run(SsspQuery{0});
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_TRUE(BitEq(patched->dist, want->dist));
  GrapeEngine<SsspApp> before(fg, SsspApp{});
  auto unpatched = before.Run(SsspQuery{0});
  ASSERT_TRUE(unpatched.ok()) << unpatched.status();
  EXPECT_FALSE(BitEq(patched->dist, unpatched->dist))
      << "the shortcut 0 -> 35 must move SSSP(0)";

  GrapeEngine<SsspApp> local(fg, SsspApp{});
  EXPECT_TRUE(local.ApplyMutations(m).status().IsInvalidArgument());
  EXPECT_TRUE(
      local.RunIncremental(SsspQuery{0}, m).status().IsInvalidArgument());
}

}  // namespace
}  // namespace grape
