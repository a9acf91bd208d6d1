// Streaming graph updates (graph/mutation.h + the engine's mutation API):
//
//  1. Mutation semantics at the Graph level — RemoveEdge, upsert inserts,
//     delete-all-matches, validation, wire round-trip.
//  2. Fragment-level rebuilds — MutateFragmentedGraph produces fragments
//     byte-identical to a from-scratch FragmentBuilder::Build over the
//     mutated graph, routing plan included.
//  3. The local differential oracle — the MutationBatch overload of
//     RunIncremental matches a full run, and the enforced monotonicity
//     contract routes deletion batches through the full-run fallback.
//  4. The remote differential gate — SessionRun + ApplyMutations +
//     RunIncremental answers bit-identical to a from-scratch recompute
//     after EVERY batch, for {sssp, cc} x {inproc, socket, tcp} x
//     {coordinator-loaded, distributed-loaded}, with a deletion batch
//     that must trip the enforced fallback on every cell.
//  5. Local vs remote deltas — the local warm start and the session delta
//     run the same fixed point: same answer, counters and per-round
//     updated_params/messages/global, with and without the incremental
//     ablation.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "apps/cc.h"
#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/mutation.h"
#include "gtest/gtest.h"
#include "partition/fragment.h"
#include "rt/distributed_load.h"
#include "rt/remote_worker.h"
#include "tests/test_util.h"

namespace grape {
namespace {

using testing::MakeFragments;

template <typename T>
bool BitEq(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

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

// ------------------------------------------------------- fragment rebuilds

// The in-place fragment rebuild must be indistinguishable — topology,
// labels, border flags, the complete routing plan — from partitioning the
// mutated graph from scratch with the same assignment.
TEST(MutationTest, MutatedFragmentsBitIdenticalToRebuild) {
  auto g = GenerateGridRoad(10, 10, 4242);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = MakeFragments(*g, "hash", 3);

  MutationBatch m;
  m.InsertEdge(4, 87, 0.5);
  m.InsertEdge(87, 4, 0.5);
  m.DeleteEdge(0, 1);  // an existing grid segment's forward arc
  ASSERT_OK(FragmentBuilder::MutateFragmentedGraph(&fg, m));

  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));
  FragmentedGraph ref = MakeFragments(updated, "hash", 3);
  ASSERT_EQ(fg.num_fragments(), ref.num_fragments());
  for (FragmentId i = 0; i < fg.num_fragments(); ++i) {
    EXPECT_EQ(FragmentBytes(fg.fragments[i]), FragmentBytes(ref.fragments[i]))
        << "fragment " << i;
  }
}

// ---------------------------------------------------- local oracle (batch)

TEST(MutationTest, LocalBatchOverloadMatchesFullRun) {
  auto g = GenerateGridRoad(20, 20, 909);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg_old = MakeFragments(*g, "hash", 4);
  GrapeEngine<SsspApp> before(fg_old, SsspApp{});
  ASSERT_TRUE(before.Run(SsspQuery{0}).ok());

  MutationBatch m;
  m.InsertEdge(5, 390, 0.5);
  m.InsertEdge(390, 5, 0.5);
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));
  FragmentedGraph fg_new = MakeFragments(updated, "hash", 4);

  GrapeEngine<SsspApp> after(fg_new, SsspApp{});
  auto inc = after.RunIncremental(SsspQuery{0}, before, m);
  ASSERT_TRUE(inc.ok()) << inc.status();
  EXPECT_FALSE(after.metrics().incremental_fallback);

  GrapeEngine<SsspApp> ref(fg_new, SsspApp{});
  auto full = ref.Run(SsspQuery{0});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(BitEq(inc->dist, full->dist));
}

// A deletion under the min order cannot ride a warm start: the enforced
// contract must answer through the full-run fallback — and flag it —
// rather than return a silently stale (too-small) distance.
TEST(MutationTest, LocalDeletionBatchTakesEnforcedFallback) {
  auto g = GenerateGridRoad(15, 15, 911);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg_old = MakeFragments(*g, "hash", 4);
  GrapeEngine<SsspApp> before(fg_old, SsspApp{});
  ASSERT_TRUE(before.Run(SsspQuery{0}).ok());

  MutationBatch m;
  m.DeleteEdge(0, 1);
  m.DeleteEdge(1, 0);
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));
  FragmentedGraph fg_new = MakeFragments(updated, "hash", 4);

  GrapeEngine<SsspApp> after(fg_new, SsspApp{});
  auto inc = after.RunIncremental(SsspQuery{0}, before, m);
  ASSERT_TRUE(inc.ok()) << inc.status();
  EXPECT_TRUE(after.metrics().incremental_fallback)
      << "a deletion batch warm-started anyway";

  GrapeEngine<SsspApp> ref(fg_new, SsspApp{});
  auto full = ref.Run(SsspQuery{0});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(BitEq(inc->dist, full->dist));
}

// ------------------------------------------------- remote differential gate

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
  for (const char* t : {"inproc", "socket", "tcp"}) {
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
    engine.emplace(fg, App{}, eo);
  }

  auto base = engine->SessionRun(query);
  ASSERT_TRUE(base.ok()) << base.status();

  // Graph is move-only: regenerate the reference copy (same seed).
  auto current_r = GenerateGridRoad(12, 12, 77);
  ASSERT_TRUE(current_r.ok());
  Graph current = std::move(*current_r);
  const std::vector<MutationBatch> batches = GateBatches();
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const MutationBatch& m = batches[bi];
    if (!c.distributed) {
      // Coordinator placement keeps rank 0's fragments in lockstep, the
      // way the serving layer does, so a later cold load cannot roll the
      // endpoints back.
      ASSERT_OK(FragmentBuilder::MutateFragmentedGraph(&fg, m));
    }
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
  }
  engine->EndSession();
  if (!path.empty()) {
    ResidentFragmentStore::Global().Erase(meta.token);
    std::remove(path.c_str());
  }
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

// ------------------------------------------ local vs remote incremental

struct IncrementalDiffCase {
  std::string app;   // "sssp" | "cc"
  bool incremental;  // EngineOptions::incremental (false: the ablation)
};

// SSSP reporting a constant non-zero global aggregate per fragment, so the
// round-for-round comparison below also covers RoundMetrics::global.
// (PageRank reports a real one but cannot warm-start locally: its IncEval
// reads the rank vector only PEval initializes.)
struct GlobalReportingSssp : SsspApp {
  double GlobalValue() const { return 1.0; }
};

/// One insert batch answered twice: by the local oracle (warm start from
/// an engine converged on G) and by a remote session on inproc (SessionRun
/// on G, ApplyMutations, RunIncremental). Both must run the same fixed
/// point round for round.
template <typename App, typename Query, typename GetVec>
void CompareLocalAndRemoteDelta(const char* remote_app, bool incremental,
                                const Query& query, GetVec get) {
  auto g = GenerateGridRoad(12, 12, 77);
  ASSERT_TRUE(g.ok());
  const MutationBatch m = GateBatches()[0];
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));
  FragmentedGraph fg_old = MakeFragments(*g, "hash", 3);
  FragmentedGraph fg_new = MakeFragments(updated, "hash", 3);

  EngineOptions lo;
  lo.incremental = incremental;
  GrapeEngine<App> before(fg_old, App{}, lo);
  ASSERT_TRUE(before.Run(query).ok());
  GrapeEngine<App> local(fg_new, App{}, lo);
  auto lout = local.RunIncremental(query, before, m);
  ASSERT_TRUE(lout.ok()) << lout.status();

  auto world = MakeTransport("inproc", 4);
  ASSERT_TRUE(world.ok()) << world.status();
  EngineOptions ro = lo;
  ro.transport = world->get();
  ro.remote_app = remote_app;
  GrapeEngine<App> remote(fg_old, App{}, ro);
  ASSERT_TRUE(remote.SessionRun(query).ok());
  ASSERT_OK(remote.ApplyMutations(m).status());
  auto rout = remote.RunIncremental(query, m);
  ASSERT_TRUE(rout.ok()) << rout.status();
  remote.EndSession();

  EXPECT_TRUE(BitEq(get(*lout), get(*rout)));
  const EngineMetrics& lm = local.metrics();
  const EngineMetrics& rm = remote.metrics();
  EXPECT_FALSE(rm.incremental_fallback);
  EXPECT_EQ(lm.supersteps, rm.supersteps);
  EXPECT_EQ(lm.messages, rm.messages);
  EXPECT_EQ(lm.bytes, rm.bytes);
  ASSERT_EQ(lm.rounds.size(), rm.rounds.size());
  for (size_t r = 0; r < lm.rounds.size(); ++r) {
    EXPECT_EQ(lm.rounds[r].updated_params, rm.rounds[r].updated_params)
        << "round " << r + 1;
    EXPECT_EQ(lm.rounds[r].messages, rm.rounds[r].messages)
        << "round " << r + 1;
    EXPECT_EQ(lm.rounds[r].global, rm.rounds[r].global) << "round " << r + 1;
  }
}

class LocalRemoteDeltaTest
    : public ::testing::TestWithParam<IncrementalDiffCase> {};

TEST_P(LocalRemoteDeltaTest, SameFixedPointRoundForRound) {
  const IncrementalDiffCase& c = GetParam();
  if (c.app == "sssp") {
    CompareLocalAndRemoteDelta<GlobalReportingSssp>(
        "global_sssp", c.incremental, SsspQuery{0},
        [](const SsspOutput& o) { return o.dist; });
  } else {
    CompareLocalAndRemoteDelta<CcApp>(
        "cc", c.incremental, CcQuery{},
        [](const CcOutput& o) { return o.label; });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LocalRemoteDeltaTest,
    ::testing::Values(IncrementalDiffCase{"sssp", true},
                      IncrementalDiffCase{"sssp", false},
                      IncrementalDiffCase{"cc", true},
                      IncrementalDiffCase{"cc", false}),
    [](const ::testing::TestParamInfo<IncrementalDiffCase>& info) {
      return info.param.app +
             (info.param.incremental ? "_incremental" : "_ablation");
    });

// Guard-rail: the mutation API stays session-scoped — using it without a
// live session is an error, not a crash or a silent local mutation.
TEST(MutationTest, ApplyMutationsRequiresLiveSession) {
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
  EXPECT_TRUE(engine.ApplyMutations(m).status().IsFailedPrecondition());

  GrapeEngine<SsspApp> local(fg, SsspApp{});
  EXPECT_TRUE(local.ApplyMutations(m).status().IsInvalidArgument());
}

}  // namespace
}  // namespace grape
