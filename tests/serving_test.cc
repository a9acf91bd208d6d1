// Serving-layer tests (src/serve): the golden guarantee — batched answers
// are bit-identical to one-at-a-time answers, on every transport, and a
// fused wave's concurrently drained lanes are repeatable — plus
// concurrent clients, per-epoch cache invalidation across reloads, writes
// running ahead of a read wave still in admission, the graph crossing the
// world once per epoch, the bounded client decoder's rejection path, and
// shared-secret rank admission on the tcp rendezvous.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "apps/bfs.h"
#include "apps/cc.h"
#include "apps/ms_bfs.h"
#include "apps/ms_sssp.h"
#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/mutation.h"
#include "gtest/gtest.h"
#include "rt/tcp_transport.h"
#include "rt/transport.h"
#include "rt/worker_protocol.h"
#include "serve/client.h"
#include "serve/serve.h"
#include "tests/probing_transport.h"
#include "tests/test_util.h"

namespace grape {
namespace {

using testing::BitEq;
using testing::MakeFragments;
using testing::ProbingTransport;

/// A 12x12 weighted road grid: connected, large diameter, so point
/// queries run enough supersteps for fusion and ordering to matter.
Graph ServingGraph() {
  auto g = GenerateGridRoad(12, 12, /*seed=*/5);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

const std::vector<VertexId> kSources = {0, 7, 33, 95, 143};

// ---------------------------------------------------------------------------
// Engine-level golden: every lane of a fused multi-source wave carries
// the same bits as a standalone single-source run of the same app.

/// K lanes over the 144-vertex serving grid; a wave of more than one lane
/// repeats its first source in its last lane.
std::vector<VertexId> LaneSources(size_t k) {
  std::vector<VertexId> sources;
  for (size_t i = 0; i < k; ++i) {
    sources.push_back(static_cast<VertexId>((i * 37 + 11) % 144));
  }
  if (k > 1) sources.back() = sources.front();
  return sources;
}

/// Runs one `MsApp` wave over `sources` as a session on `world`, `repeats`
/// times from a fresh engine, and checks each lane (`lanes_of` the
/// output) bit-equal to a local `App` run from that lane's source
/// (`answer_of` its output) on the same fragments, and every repeat's
/// messages, bytes and supersteps equal to the first's.
template <typename MsApp, typename App, typename LanesFn, typename AnswerFn>
void ExpectLanesMatchSingleSource(const FragmentedGraph& fg, Transport* world,
                                  const char* remote_app,
                                  const std::vector<VertexId>& sources,
                                  LanesFn lanes_of, AnswerFn answer_of,
                                  int repeats = 1) {
  using Answer = std::decay_t<
      std::invoke_result_t<AnswerFn, const typename App::OutputType&>>;
  std::vector<Answer> want;
  for (VertexId source : sources) {
    GrapeEngine<App> ref(fg, App{}, EngineOptions{});
    ASSERT_OK_AND_ASSIGN(auto single,
                         ref.Run(typename App::QueryType{source}));
    want.push_back(answer_of(single));
  }
  EngineOptions eo;
  eo.transport = world;
  eo.remote_app = remote_app;
  typename MsApp::QueryType query;
  query.sources = sources;
  std::optional<EngineMetrics> first;
  for (int r = 0; r < repeats; ++r) {
    GrapeEngine<MsApp> ms(fg, MsApp{}, eo);
    ASSERT_OK_AND_ASSIGN(auto wave, ms.SessionRun(query));
    const EngineMetrics m = ms.metrics();
    ms.EndSession();

    const auto& lanes = lanes_of(wave);
    ASSERT_EQ(lanes.size(), sources.size());
    for (size_t k = 0; k < sources.size(); ++k) {
      EXPECT_TRUE(BitEq(lanes[k], want[k]))
          << remote_app << " repeat " << r << " lane " << k << " of "
          << sources.size() << " (source " << sources[k] << ")";
    }
    if (!first) {
      first = m;
      continue;
    }
    EXPECT_EQ(m.messages, first->messages) << remote_app << " repeat " << r;
    EXPECT_EQ(m.bytes, first->bytes) << remote_app << " repeat " << r;
    EXPECT_EQ(m.supersteps, first->supersteps)
        << remote_app << " repeat " << r;
  }
}

TEST(ServingTest, MultiSourceLanesMatchSingleSourceBits) {
  RegisterBuiltinWorkerApps();
  Graph graph = ServingGraph();
  for (const char* partitioner : {"hash", "metis"}) {
    FragmentedGraph fg = MakeFragments(graph, partitioner, 3);
    for (const char* transport : {"inproc", "tcp"}) {
      for (size_t k : {1, 2, 8, 16}) {
        SCOPED_TRACE(std::string(partitioner) + " / " + transport + " / " +
                     std::to_string(k) + " lanes");
        const std::vector<VertexId> sources = LaneSources(k);
        auto world = MakeTransport(transport, 4);
        ASSERT_TRUE(world.ok()) << world.status();
        ExpectLanesMatchSingleSource<MsSsspApp, SsspApp>(
            fg, world->get(), "ms_sssp", sources,
            [](const MsSsspOutput& o) -> const auto& { return o.dist; },
            [](const SsspOutput& o) -> const auto& { return o.dist; });
        ExpectLanesMatchSingleSource<MsBfsApp, BfsApp>(
            fg, world->get(), "ms_bfs", sources,
            [](const MsBfsOutput& o) -> const auto& { return o.depth; },
            [](const BfsOutput& o) -> const auto& { return o.depth; });
      }
    }
  }
}

/// `lanes` sources spread over `frag`'s inner vertices.
std::vector<VertexId> OneFragmentSources(const Fragment& frag, size_t lanes) {
  const size_t stride = frag.num_inner() / lanes;
  std::vector<VertexId> sources;
  for (size_t k = 0; k < lanes; ++k) {
    sources.push_back(frag.Gid(static_cast<LocalId>(k * stride)));
  }
  return sources;
}

// With every source in one fragment, that fragment's endpoint drains all
// K PEval lanes at once: the lanes' threads interleave differently from
// run to run, and neither the answers nor the traffic may show it. The
// 90x90 grid gives each fragment enough vertices to drain on threads.
TEST(ServingTest, ConcurrentLanesInOneFragmentAreRepeatable) {
  RegisterBuiltinWorkerApps();
  auto graph = GenerateGridRoad(90, 90, /*seed=*/5);
  ASSERT_TRUE(graph.ok()) << graph.status();
  const FragmentedGraph fg = MakeFragments(*graph, "metis", 3);
  for (const char* transport : {"inproc", "tcp"}) {
    auto world = MakeTransport(transport, 4);
    ASSERT_TRUE(world.ok()) << world.status();
    for (size_t k : {4, 16}) {
      SCOPED_TRACE(std::string(transport) + " / " + std::to_string(k) +
                   " lanes");
      const std::vector<VertexId> sources =
          OneFragmentSources(fg.fragments[0], k);
      ExpectLanesMatchSingleSource<MsSsspApp, SsspApp>(
          fg, world->get(), "ms_sssp", sources,
          [](const MsSsspOutput& o) -> const auto& { return o.dist; },
          [](const SsspOutput& o) -> const auto& { return o.dist; },
          /*repeats=*/10);
      ExpectLanesMatchSingleSource<MsBfsApp, BfsApp>(
          fg, world->get(), "ms_bfs", sources,
          [](const MsBfsOutput& o) -> const auto& { return o.depth; },
          [](const BfsOutput& o) -> const auto& { return o.depth; },
          /*repeats=*/10);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end golden on every transport: a batching server under
// concurrent clients answers bit-identically to a non-batching server
// under a sequential client — and both match the engine run directly.

class ServingGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServingGoldenTest, BatchedEqualsSequential) {
  RegisterBuiltinWorkerApps();
  Graph graph = ServingGraph();

  auto world = MakeTransport(GetParam(), 4);
  ASSERT_TRUE(world.ok()) << world.status();

  ServeOptions base;
  base.transport = world->get();
  base.num_fragments = 3;
  base.load_coordinator = [&graph]() -> Result<FragmentedGraph> {
    auto partitioner = MakePartitioner("hash");
    GRAPE_RETURN_NOT_OK(partitioner.status());
    GRAPE_ASSIGN_OR_RETURN(auto assignment,
                           (*partitioner)->Partition(graph, 3));
    return FragmentBuilder::Build(graph, assignment, 3);
  };

  // Pass 1 — batching disabled, one client, one query at a time.
  std::vector<std::vector<double>> seq_dist;
  std::vector<std::vector<uint32_t>> seq_depth;
  std::vector<VertexId> seq_cc;
  {
    ServeOptions opts = base;
    opts.batch_window_ms = 0;
    ServeServer server(opts);
    ASSERT_OK(server.Start());
    ASSERT_OK_AND_ASSIGN(ServeClient client,
                         ServeClient::Connect(server.port()));
    for (VertexId s : kSources) {
      ASSERT_OK_AND_ASSIGN(auto d, client.Sssp(s));
      ASSERT_OK_AND_ASSIGN(auto b, client.Bfs(s));
      seq_dist.push_back(std::move(d));
      seq_depth.push_back(std::move(b));
    }
    ASSERT_OK_AND_ASSIGN(seq_cc, client.ComponentLabels());
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.fused_queries, 0u);  // window closed: no fusion
    EXPECT_EQ(stats.errors, 0u);
    server.Shutdown();
  }

  // The sequential pass must itself match the engine, not just later
  // passes: self-consistent-but-wrong would otherwise slip through.
  {
    FragmentedGraph fg = MakeFragments(graph, "hash", 3);
    for (size_t k = 0; k < kSources.size(); ++k) {
      GrapeEngine<SsspApp> ref(fg, SsspApp{}, EngineOptions{});
      auto single = ref.Run(SsspQuery{kSources[k]});
      ASSERT_TRUE(single.ok()) << single.status();
      EXPECT_TRUE(BitEq(seq_dist[k], single->dist)) << "source " << kSources[k];
    }
  }

  // Pass 2 — wide-open batching window, one client thread per source,
  // all firing at once so the admission loop actually fuses.
  {
    ServeOptions opts = base;
    opts.batch_window_ms = 100;
    opts.max_batch = 16;
    ServeServer server(opts);
    ASSERT_OK(server.Start());
    std::atomic<uint32_t> mismatches{0};
    std::vector<std::thread> threads;
    for (size_t k = 0; k < kSources.size(); ++k) {
      threads.emplace_back([&, k] {
        auto client = ServeClient::Connect(server.port());
        if (!client.ok()) {
          mismatches.fetch_add(1);
          return;
        }
        auto d = client->Sssp(kSources[k]);
        if (!d.ok() || !BitEq(*d, seq_dist[k])) mismatches.fetch_add(1);
        auto b = client->Bfs(kSources[k]);
        if (!b.ok() || !BitEq(*b, seq_depth[k])) mismatches.fetch_add(1);
        auto cc = client->ComponentLabels();
        if (!cc.ok() || !BitEq(*cc, seq_cc)) mismatches.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0u);
    // The concurrent CC reads computed the epoch cache (possibly all in
    // one fused batch, which counts no hits); a read after the dust
    // settles must be a pure cache hit.
    ASSERT_OK_AND_ASSIGN(ServeClient late, ServeClient::Connect(server.port()));
    ASSERT_OK_AND_ASSIGN(auto late_cc, late.ComponentLabels());
    EXPECT_TRUE(BitEq(late_cc, seq_cc));
    const ServeStats stats = server.stats();
    EXPECT_GT(stats.fused_queries, 0u)
        << "concurrent same-class queries never fused";
    EXPECT_GT(stats.cache_hits, 0u)
        << "a repeated CC read never hit the epoch cache";
    EXPECT_EQ(stats.errors, 0u);
    server.Shutdown();
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, ServingGoldenTest,
                         ::testing::Values("inproc", "tcp"));

// ---------------------------------------------------------------------------
// Reload: a new epoch re-runs the loader, invalidates the CC/PageRank
// caches, and serves the new graph's answers.

TEST(ServingTest, ReloadInvalidatesCachesAndBumpsEpoch) {
  RegisterBuiltinWorkerApps();
  // Epoch 1: one 12-vertex path (single component). Epoch 2: the same
  // vertices as two disjoint halves — CC labels must change shape-free.
  auto world = MakeTransport("inproc", 4);
  ASSERT_TRUE(world.ok()) << world.status();

  std::atomic<int> loads{0};
  ServeOptions opts;
  opts.transport = world->get();
  opts.num_fragments = 3;
  opts.batch_window_ms = 0;
  opts.load_coordinator = [&loads]() -> Result<FragmentedGraph> {
    const int epoch = ++loads;
    GraphBuilder builder(/*directed=*/false);
    for (VertexId v = 0; v + 1 < 12; ++v) {
      if (epoch > 1 && v == 5) continue;  // sever the middle edge
      builder.AddEdge(v, v + 1, 1.0);
    }
    GRAPE_ASSIGN_OR_RETURN(Graph g, std::move(builder).Build());
    auto partitioner = MakePartitioner("hash");
    GRAPE_RETURN_NOT_OK(partitioner.status());
    GRAPE_ASSIGN_OR_RETURN(auto assignment, (*partitioner)->Partition(g, 3));
    return FragmentBuilder::Build(g, assignment, 3);
  };
  ServeServer server(opts);
  ASSERT_OK(server.Start());
  EXPECT_EQ(server.epoch(), 1u);

  ASSERT_OK_AND_ASSIGN(ServeClient client, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(auto cc1, client.ComponentLabels());
  ASSERT_OK_AND_ASSIGN(auto cc1_again, client.ComponentLabels());
  EXPECT_TRUE(BitEq(cc1, cc1_again));
  EXPECT_GE(server.stats().cache_hits, 1u);
  ASSERT_OK_AND_ASSIGN(auto pr1, client.PageRank());

  ASSERT_OK_AND_ASSIGN(uint64_t epoch, client.Reload());
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(server.epoch(), 2u);
  EXPECT_EQ(server.stats().reloads, 1u);

  ASSERT_OK_AND_ASSIGN(auto cc2, client.ComponentLabels());
  ASSERT_OK_AND_ASSIGN(auto pr2, client.PageRank());
  EXPECT_FALSE(BitEq(cc1, cc2)) << "reload served the stale CC cache";
  EXPECT_FALSE(BitEq(pr1, pr2)) << "reload served the stale PageRank cache";
  // The severed graph has two components; the path had one.
  EXPECT_EQ(cc2.front(), cc2[5]);
  EXPECT_NE(cc2.front(), cc2[6]);
  EXPECT_EQ(cc1.front(), cc1[6]);

  // Point queries see the new epoch too (vertex 6 now unreachable from 0).
  ASSERT_OK_AND_ASSIGN(auto dist, client.Sssp(0));
  EXPECT_EQ(dist[6], kInfDistance);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Streaming updates through the serve protocol: a mutation batch lands in
// the resident graph (no reload, no epoch bump), later answers are
// bit-identical to a from-scratch recompute of G ⊕ M, an insert-only batch
// refreshes a current CC answer by bounded delta over CC's own warm slot,
// and a deletion batch invalidates caches instead of serving stale bits.

TEST(ServingTest, MutateStreamsIntoResidentGraph) {
  RegisterBuiltinWorkerApps();
  Graph graph = ServingGraph();
  auto world = MakeTransport("inproc", 4);
  ASSERT_TRUE(world.ok()) << world.status();

  ServeOptions opts;
  opts.transport = world->get();
  opts.num_fragments = 3;
  opts.batch_window_ms = 0;
  opts.load_coordinator = [&graph]() -> Result<FragmentedGraph> {
    auto partitioner = MakePartitioner("hash");
    GRAPE_RETURN_NOT_OK(partitioner.status());
    GRAPE_ASSIGN_OR_RETURN(auto assignment, (*partitioner)->Partition(graph, 3));
    return FragmentBuilder::Build(graph, assignment, 3);
  };
  ServeServer server(opts);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(ServeClient client, ServeClient::Connect(server.port()));

  // Prime the CC answer so the first mutation has one to refresh.
  ASSERT_OK_AND_ASSIGN(auto cc0, client.ComponentLabels());

  // Insert-only batch: a shortcut edge in both directions.
  MutationBatch m1;
  m1.InsertEdge(3, 140, 0.25);
  m1.InsertEdge(140, 3, 0.25);
  ASSERT_OK_AND_ASSIGN(uint64_t v1, client.Mutate(m1));
  EXPECT_EQ(v1, (1ull << 32) | 1u) << "epoch 1, first intra-epoch mutation";
  EXPECT_EQ(server.epoch(), 1u) << "a mutation is not an epoch transition";
  {
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.mutations, 1u);
    EXPECT_EQ(stats.reloads, 0u);
    EXPECT_EQ(stats.delta_refreshes, 1u)
        << "insert-only batch did not delta-refresh the CC answer";
  }

  ASSERT_OK_AND_ASSIGN(Graph g1, ApplyMutations(graph, m1));

  // The delta-refreshed CC cache serves the mutated graph's labels as a
  // pure cache hit.
  const uint64_t hits_before = server.stats().cache_hits;
  ASSERT_OK_AND_ASSIGN(auto cc1, client.ComponentLabels());
  EXPECT_GT(server.stats().cache_hits, hits_before)
      << "post-mutation CC read recomputed instead of hitting the "
         "delta-refreshed cache";
  {
    FragmentedGraph ref_fg = MakeFragments(g1, "hash", 3);
    GrapeEngine<CcApp> ref(ref_fg, CcApp{});
    auto full = ref.Run(CcQuery{});
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_TRUE(BitEq(cc1, full->label));
  }

  // Point queries answer over G ⊕ M: the shortcut pulls 140 close to 0.
  ASSERT_OK_AND_ASSIGN(auto dist1, client.Sssp(0));
  {
    FragmentedGraph ref_fg = MakeFragments(g1, "hash", 3);
    GrapeEngine<SsspApp> ref(ref_fg, SsspApp{});
    auto full = ref.Run(SsspQuery{0});
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_TRUE(BitEq(dist1, full->dist));
  }

  // Deletion batch: takes the shortcut back out. Caches must not serve
  // the stale (too-short) world.
  MutationBatch m2;
  m2.DeleteEdge(3, 140);
  m2.DeleteEdge(140, 3);
  ASSERT_OK_AND_ASSIGN(uint64_t v2, client.Mutate(m2));
  EXPECT_EQ(v2, (1ull << 32) | 2u);
  ASSERT_OK_AND_ASSIGN(Graph g2, ApplyMutations(g1, m2));

  ASSERT_OK_AND_ASSIGN(auto cc2, client.ComponentLabels());
  ASSERT_OK_AND_ASSIGN(auto dist2, client.Sssp(0));
  {
    FragmentedGraph ref_fg = MakeFragments(g2, "hash", 3);
    GrapeEngine<CcApp> ref_cc(ref_fg, CcApp{});
    auto full_cc = ref_cc.Run(CcQuery{});
    ASSERT_TRUE(full_cc.ok()) << full_cc.status();
    EXPECT_TRUE(BitEq(cc2, full_cc->label));
    GrapeEngine<SsspApp> ref_sssp(ref_fg, SsspApp{});
    auto full_sssp = ref_sssp.Run(SsspQuery{0});
    ASSERT_TRUE(full_sssp.ok()) << full_sssp.status();
    EXPECT_TRUE(BitEq(dist2, full_sssp->dist));
  }
  EXPECT_NE(dist1[140], dist2[140])
      << "deleting the shortcut did not change the distance it created";

  // A malformed mutation payload is a request error, not a server death.
  {
    Encoder enc;
    m1.EncodeTo(enc);
    std::vector<uint8_t> bytes = enc.buffer();
    bytes.push_back(0xEE);  // trailing garbage
    auto bad = client.Request(kTagSvMutate, bytes);
    EXPECT_FALSE(bad.ok());
    ASSERT_OK(client.Ping());
  }
  EXPECT_EQ(server.stats().mutations, 2u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Residency: under coordinator loading the graph crosses the world once per
// epoch. Every class's session attaches to the resident fragments by token
// instead of re-shipping them, and sees every mutation the endpoints
// applied.

constexpr uint32_t kFrags = 3;

TEST(ServingTest, GraphShipsOncePerEpoch) {
  RegisterBuiltinWorkerApps();
  Graph graph = ServingGraph();
  auto inner = MakeTransport("inproc", 4);
  ASSERT_TRUE(inner.ok()) << inner.status();
  ProbingTransport world(std::move(inner).value());

  ServeOptions opts;
  opts.transport = &world;
  opts.num_fragments = kFrags;
  opts.batch_window_ms = 0;
  opts.load_coordinator = [&graph]() -> Result<FragmentedGraph> {
    auto partitioner = MakePartitioner("hash");
    GRAPE_RETURN_NOT_OK(partitioner.status());
    GRAPE_ASSIGN_OR_RETURN(auto assignment,
                           (*partitioner)->Partition(graph, kFrags));
    return FragmentBuilder::Build(graph, assignment, kFrags);
  };

  MutationBatch m;
  m.InsertEdge(3, 140, 0.25);
  m.InsertEdge(140, 3, 0.25);
  ASSERT_OK_AND_ASSIGN(Graph mutated, ApplyMutations(graph, m));
  auto oracle_sssp = [](const Graph& g) {
    FragmentedGraph fg = MakeFragments(g, "hash", kFrags);
    GrapeEngine<SsspApp> ref(fg, SsspApp{});
    auto full = ref.Run(SsspQuery{0});
    EXPECT_TRUE(full.ok()) << full.status();
    return full.ok() ? full->dist : std::vector<double>{};
  };
  auto oracle_cc = [](const Graph& g) {
    FragmentedGraph fg = MakeFragments(g, "hash", kFrags);
    GrapeEngine<CcApp> ref(fg, CcApp{});
    auto full = ref.Run(CcQuery{});
    EXPECT_TRUE(full.ok()) << full.status();
    return full.ok() ? full->label : std::vector<VertexId>{};
  };
  const std::vector<double> sssp_g = oracle_sssp(graph);
  const std::vector<double> sssp_gm = oracle_sssp(mutated);
  const std::vector<VertexId> cc_g = oracle_cc(graph);
  const std::vector<VertexId> cc_gm = oracle_cc(mutated);
  ASSERT_FALSE(BitEq(sssp_g, sssp_gm)) << "the shortcut must move SSSP(0)";

  ServeServer server(opts);
  ASSERT_OK(server.Start());
  EXPECT_EQ(world.deposits(), kFrags) << "Start deposits each fragment once";
  EXPECT_EQ(world.loads(), kFrags) << "Start primes one class by attaching";
  ASSERT_OK_AND_ASSIGN(ServeClient client, ServeClient::Connect(server.port()));

  ASSERT_OK_AND_ASSIGN(auto d1, client.Sssp(0));
  EXPECT_TRUE(BitEq(d1, sssp_g));
  ASSERT_OK_AND_ASSIGN(auto c1, client.ComponentLabels());
  EXPECT_TRUE(BitEq(c1, cc_g));
  // SSSP after a CC read: each class kept its own warm slot.
  ASSERT_OK_AND_ASSIGN(auto d2, client.Sssp(0));
  EXPECT_TRUE(BitEq(d2, sssp_g));
  // The two other classes' cold sessions attach too.
  ASSERT_OK(client.Bfs(0).status());
  ASSERT_OK(client.PageRank().status());
  EXPECT_EQ(world.loads(), 4 * kFrags) << "one cold load per class";
  ASSERT_OK(client.Mutate(m).status());
  ASSERT_OK_AND_ASSIGN(auto c2, client.ComponentLabels());
  EXPECT_TRUE(BitEq(c2, cc_gm));
  // SSSP after a mutation: the endpoints re-seated its warm slot on the
  // patched resident fragment, no re-ship involved.
  ASSERT_OK_AND_ASSIGN(auto d3, client.Sssp(0));
  EXPECT_TRUE(BitEq(d3, sssp_gm));
  EXPECT_EQ(world.deposits(), kFrags)
      << "a cold session or a query re-shipped the graph within the epoch";

  // A reload is a new epoch: exactly one more deposit, of the loader's
  // (unmutated) graph, under a new token.
  ASSERT_OK_AND_ASSIGN(uint64_t epoch, client.Reload());
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(world.deposits(), 2 * kFrags);
  EXPECT_EQ(world.deposit_tokens().size(), 2u);
  ASSERT_OK_AND_ASSIGN(auto d4, client.Sssp(0));
  EXPECT_TRUE(BitEq(d4, sssp_g));
  ASSERT_OK_AND_ASSIGN(auto c3, client.ComponentLabels());
  EXPECT_TRUE(BitEq(c3, cc_g));
  EXPECT_EQ(world.deposits(), 2 * kFrags);
  EXPECT_EQ(server.stats().errors, 0u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Standing answers across writes: each class keeps its own warm app slot in
// every endpoint, so a write refreshes the CC answer by a bounded delta
// while SSSP keeps its session, and later reads are served without any
// class loading again.

/// Two 6x12 weighted grids with no edge between them (vertices 0..71 and
/// 72..143): CC has two components until a write bridges them, and SSSP
/// from 0 cannot reach the second island before that. Integer weights keep
/// every path length exact.
Graph TwoIslandGraph() {
  GraphBuilder builder(/*directed=*/true);
  for (VertexId r = 0; r < 12; ++r) {
    for (VertexId c = 0; c < 12; ++c) {
      const VertexId v = r * 12 + c;
      if (c + 1 < 12) {
        const double w = 1.0 + v % 7;
        builder.AddEdge(v, v + 1, w);
        builder.AddEdge(v + 1, v, w);
      }
      if (r + 1 < 12 && r != 5) {
        const double w = 1.0 + v % 5;
        builder.AddEdge(v, v + 12, w);
        builder.AddEdge(v + 12, v, w);
      }
    }
  }
  auto g = std::move(builder).Build(144);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

/// Coordinator-loaded serving of `graph` (borrowed) over hash fragments.
ServeOptions LoaderOptions(Transport* world, const Graph* graph) {
  ServeOptions opts;
  opts.transport = world;
  opts.num_fragments = kFrags;
  opts.batch_window_ms = 0;
  opts.load_coordinator = [graph]() -> Result<FragmentedGraph> {
    auto partitioner = MakePartitioner("hash");
    GRAPE_RETURN_NOT_OK(partitioner.status());
    GRAPE_ASSIGN_OR_RETURN(auto assignment,
                           (*partitioner)->Partition(*graph, kFrags));
    return FragmentBuilder::Build(*graph, assignment, kFrags);
  };
  return opts;
}

std::vector<double> OracleSssp(const Graph& g) {
  FragmentedGraph fg = MakeFragments(g, "hash", kFrags);
  GrapeEngine<SsspApp> ref(fg, SsspApp{});
  auto full = ref.Run(SsspQuery{0});
  EXPECT_TRUE(full.ok()) << full.status();
  return full.ok() ? full->dist : std::vector<double>{};
}

std::vector<VertexId> OracleCc(const Graph& g) {
  FragmentedGraph fg = MakeFragments(g, "hash", kFrags);
  GrapeEngine<CcApp> ref(fg, CcApp{});
  auto full = ref.Run(CcQuery{});
  EXPECT_TRUE(full.ok()) << full.status();
  return full.ok() ? full->label : std::vector<VertexId>{};
}

/// Encodes one request frame the way ServeClient does.
void AppendRequest(uint32_t id, uint32_t tag,
                   const std::vector<uint8_t>& payload,
                   std::vector<uint8_t>* wire) {
  FrameHeader h;
  h.from = id;
  h.to = 0;
  h.tag = tag;
  h.payload_len = static_cast<uint32_t>(payload.size());
  uint8_t hdr[kFrameHeaderBytes];
  EncodeFrameHeader(h, hdr);
  wire->insert(wire->end(), hdr, hdr + kFrameHeaderBytes);
  wire->insert(wire->end(), payload.begin(), payload.end());
}

std::vector<uint8_t> SourcePayload(VertexId source) {
  Encoder enc;
  enc.WriteU32(source);
  return enc.TakeBuffer();
}

std::vector<uint8_t> MutationPayload(const MutationBatch& m) {
  Encoder enc;
  m.EncodeTo(enc);
  return enc.TakeBuffer();
}

/// Reads the next frame on `client`, which must be the ok answer to
/// request `id`, and decodes its payload as one vector.
template <typename T>
void ReadAnswer(ServeClient& client, uint32_t id, std::vector<T>* out) {
  uint32_t got_id = 0, tag = 0;
  std::vector<uint8_t> payload;
  ASSERT_OK(client.ReadRawFrame(&got_id, &tag, &payload));
  ASSERT_EQ(got_id, id);
  ASSERT_EQ(tag, kTagSvOk);
  Decoder dec(payload);
  ASSERT_OK(dec.ReadPodVector(out));
}

/// The island bridge of TwoIslandGraph: SSSP from 0 reaches the second
/// island only after it.
MutationBatch Bridge() {
  MutationBatch bridge;
  bridge.InsertEdge(65, 77, 2.0);
  bridge.InsertEdge(77, 65, 2.0);
  return bridge;
}

/// Lets a request sent by another connection reach the admission queue.
void LetAdmit() { std::this_thread::sleep_for(std::chrono::milliseconds(200)); }

class ServingTransportTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServingTransportTest, StandingAnswersSurviveWrites) {
  RegisterBuiltinWorkerApps();
  const Graph graph = TwoIslandGraph();
  auto inner = MakeTransport(GetParam(), kFrags + 1);
  ASSERT_TRUE(inner.ok()) << inner.status();
  ProbingTransport world(std::move(inner).value());

  // Version k is the loaded graph with batches 1..k applied: the first
  // bridges the islands (CC labels move), the others add shortcuts
  // (SSSP distances move).
  std::vector<MutationBatch> batches(3);
  batches[0].InsertEdge(65, 77, 2.0);
  batches[0].InsertEdge(77, 65, 2.0);
  batches[1].InsertEdge(3, 140, 1.0);
  batches[1].InsertEdge(140, 3, 1.0);
  batches[2].InsertEdge(60, 100, 1.0);
  batches[2].InsertEdge(100, 60, 1.0);
  std::vector<std::vector<double>> sssp = {OracleSssp(graph)};
  std::vector<std::vector<VertexId>> cc = {OracleCc(graph)};
  {
    ASSERT_OK_AND_ASSIGN(Graph g, ApplyMutations(graph, batches[0]));
    for (size_t k = 0; k < batches.size(); ++k) {
      if (k > 0) {
        ASSERT_OK_AND_ASSIGN(g, ApplyMutations(g, batches[k]));
      }
      sssp.push_back(OracleSssp(g));
      cc.push_back(OracleCc(g));
    }
  }
  ASSERT_FALSE(BitEq(cc[0], cc[1])) << "the bridge must merge components";

  ServeServer server(LoaderOptions(&world, &graph));
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(ServeClient client, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(auto d0, client.Sssp(0));
  EXPECT_TRUE(BitEq(d0, sssp[0]));
  ASSERT_OK_AND_ASSIGN(auto c0, client.ComponentLabels());
  EXPECT_TRUE(BitEq(c0, cc[0]));
  const uint64_t loads_after_cc = world.loads();
  const ServeStats before = server.stats();

  for (uint32_t k = 1; k <= batches.size(); ++k) {
    ASSERT_OK_AND_ASSIGN(uint64_t version, client.Mutate(batches[k - 1]));
    ASSERT_EQ(version, (1ull << 32) | k);
    const uint32_t seq = static_cast<uint32_t>(version);
    ASSERT_OK_AND_ASSIGN(auto labels, client.ComponentLabels());
    EXPECT_TRUE(BitEq(labels, cc[seq])) << "CC at version " << seq;
    ASSERT_OK_AND_ASSIGN(auto dist, client.Sssp(0));
    EXPECT_TRUE(BitEq(dist, sssp[seq])) << "SSSP at version " << seq;
  }
  const ServeStats after = server.stats();
  EXPECT_EQ(after.delta_refreshes - before.delta_refreshes, 3u)
      << "an insert-only write did not refresh the CC answer by delta";
  EXPECT_EQ(after.cache_hits - before.cache_hits, 3u)
      << "a CC read after a write recomputed instead of hitting";
  EXPECT_EQ(world.loads(), loads_after_cc)
      << "a class loaded its app slot again after the first CC load";
  EXPECT_EQ(after.errors, 0u);
  server.Shutdown();
}

// A failed mutation may have reached some endpoints and not others: no
// standing answer and no session survives it, and the server refuses to
// answer until a reload rebuilds the graph.
TEST_P(ServingTransportTest, FailedMutateRefusesQueriesUntilReload) {
  RegisterBuiltinWorkerApps();
  const Graph graph = TwoIslandGraph();
  auto inner = MakeTransport(GetParam(), kFrags + 1);
  ASSERT_TRUE(inner.ok()) << inner.status();
  ProbingTransport world(std::move(inner).value());
  const std::vector<VertexId> cc0 = OracleCc(graph);
  const std::vector<double> sssp0 = OracleSssp(graph);

  ServeServer server(LoaderOptions(&world, &graph));
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(ServeClient client, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(auto c0, client.ComponentLabels());
  EXPECT_TRUE(BitEq(c0, cc0));

  const MutationBatch bridge = Bridge();
  world.FailNextMutateAckFrom(1);
  EXPECT_FALSE(client.Mutate(bridge).ok());
  EXPECT_TRUE(client.ComponentLabels().status().IsFailedPrecondition())
      << "the pre-mutation CC answer outlived a failed mutation";
  EXPECT_TRUE(client.Sssp(0).status().IsFailedPrecondition());
  EXPECT_TRUE(client.Mutate(bridge).status().IsFailedPrecondition());
  ASSERT_OK(client.Ping());

  ASSERT_OK_AND_ASSIGN(uint64_t epoch, client.Reload());
  EXPECT_EQ(epoch, 2u);
  ASSERT_OK_AND_ASSIGN(auto c1, client.ComponentLabels());
  EXPECT_TRUE(BitEq(c1, cc0));
  ASSERT_OK_AND_ASSIGN(auto d1, client.Sssp(0));
  EXPECT_TRUE(BitEq(d1, sssp0));
  server.Shutdown();
}

/// Metadata of the hash fragments LoaderOptions deposits, under `token`.
DistributedGraphMeta MetaFor(const Graph& graph, uint64_t token) {
  FragmentedGraph fg = MakeFragments(graph, "hash", kFrags);
  DistributedGraphMeta meta;
  meta.token = token;
  meta.num_fragments = kFrags;
  meta.total_vertices = fg.total_vertices;
  meta.directed = fg.directed;
  for (const Fragment& f : fg.fragments) {
    meta.shapes.push_back(
        FragmentShape{f.num_inner(), f.num_local(), f.num_edges()});
  }
  return meta;
}

// A reload frees the previous epoch's fragments in every endpoint, forked
// or in-thread: an engine still holding the old token finds nothing to
// attach to, while the same engine attached fine before the reload.
TEST_P(ServingTransportTest, ReloadReleasesTheOldEpochEverywhere) {
  RegisterBuiltinWorkerApps();
  const Graph graph = TwoIslandGraph();
  auto inner = MakeTransport(GetParam(), kFrags + 1);
  ASSERT_TRUE(inner.ok()) << inner.status();
  ProbingTransport world(std::move(inner).value());
  ServeServer server(LoaderOptions(&world, &graph));
  ASSERT_OK(server.Start());
  ASSERT_EQ(world.deposit_tokens().size(), 1u);
  const DistributedGraphMeta old_meta =
      MetaFor(graph, world.deposit_tokens()[0]);
  EngineOptions eo;
  eo.transport = &world;
  eo.remote_app = "sssp";
  {
    GrapeEngine<SsspApp> attached(old_meta, eo);
    auto out = attached.SessionRun(SsspQuery{0});
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_TRUE(BitEq(out->dist, OracleSssp(graph)));
  }

  ASSERT_OK_AND_ASSIGN(ServeClient client, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(uint64_t epoch, client.Reload());
  EXPECT_EQ(epoch, 2u);
  GrapeEngine<SsspApp> stale(old_meta, eo);
  auto out = stale.SessionRun(SsspQuery{0});
  ASSERT_FALSE(out.ok()) << "the old epoch's fragments are still resident";
  EXPECT_TRUE(out.status().IsNotFound()) << out.status();
  EXPECT_NE(out.status().message().find("no resident fragment for build token"),
            std::string::npos)
      << out.status();
  // The probe's wait took every rank's NotFound, so none of them is left
  // to fail the server's next wave.
  ASSERT_OK_AND_ASSIGN(auto d, client.Sssp(0));
  EXPECT_TRUE(BitEq(d, OracleSssp(graph)));
  server.Shutdown();
}

// A coordinator-loaded engine whose ApplyMutations failed cannot trust the
// endpoints' copies: its next cold load deposits fg_ again and answers
// exactly as a fresh engine over fg_ does.
TEST_P(ServingTransportTest, FailedApplyMutationsDepositsAgain) {
  RegisterBuiltinWorkerApps();
  const Graph graph = TwoIslandGraph();
  const FragmentedGraph fg = MakeFragments(graph, "hash", kFrags);
  auto inner = MakeTransport(GetParam(), kFrags + 1);
  ASSERT_TRUE(inner.ok()) << inner.status();
  ProbingTransport world(std::move(inner).value());
  EngineOptions eo;
  eo.transport = &world;
  eo.remote_app = "sssp";
  GrapeEngine<SsspApp> engine(fg, SsspApp{}, eo);
  ASSERT_TRUE(engine.SessionRun(SsspQuery{0}).ok());
  ASSERT_EQ(world.deposits(), kFrags);

  world.FailNextMutateAckFrom(1);
  EXPECT_FALSE(engine.ApplyMutations(Bridge()).ok());
  EXPECT_EQ(world.deposits(), kFrags) << "the failure itself re-deposited";
  auto out = engine.SessionRun(SsspQuery{0});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(world.deposits(), 2 * kFrags)
      << "the cold load after a failed mutation attached the old deposit";
  EXPECT_EQ(world.deposit_tokens().size(), 2u);
  EXPECT_TRUE(BitEq(out->dist, OracleSssp(graph)));
  ASSERT_TRUE(engine.SessionRun(SsspQuery{0}).ok());
  EXPECT_EQ(world.deposits(), 2 * kFrags);
}

// ---------------------------------------------------------------------------
// Writes go first: at a wave boundary a Mutate from another connection runs
// ahead of the read wave still in admission, and the wave answers over
// G ⊕ M; a Mutate behind its own connection's read, or behind a held
// Reload, keeps its place.

TEST_P(ServingTransportTest, MutateFromAnotherConnectionJumpsTheWindow) {
  RegisterBuiltinWorkerApps();
  const Graph graph = TwoIslandGraph();
  ASSERT_OK_AND_ASSIGN(Graph bridged, ApplyMutations(graph, Bridge()));
  const std::vector<double> sssp_g = OracleSssp(graph);
  const std::vector<double> sssp_gm = OracleSssp(bridged);
  ASSERT_FALSE(BitEq(sssp_g, sssp_gm));
  auto world = MakeTransport(GetParam(), kFrags + 1);
  ASSERT_TRUE(world.ok()) << world.status();
  ServeOptions opts = LoaderOptions(world->get(), &graph);
  opts.batch_window_ms = 2000;
  ServeServer server(opts);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(ServeClient a, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(ServeClient b, ServeClient::Connect(server.port()));

  std::vector<uint8_t> wire;
  AppendRequest(1, kTagSvSssp, SourcePayload(0), &wire);
  ASSERT_OK(a.SendRawBytes(wire.data(), wire.size()));
  LetAdmit();
  // B's answer arrives while A's read is still in its window: without
  // the jump it would wait out the window and the wave.
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_OK_AND_ASSIGN(uint64_t version, b.Mutate(Bridge()));
  EXPECT_LT(std::chrono::steady_clock::now() - sent,
            std::chrono::milliseconds(opts.batch_window_ms));
  EXPECT_EQ(version, (1ull << 32) | 1u);
  std::vector<double> dist;
  ReadAnswer(a, 1, &dist);
  EXPECT_TRUE(BitEq(dist, sssp_gm)) << "the read did not answer over G ⊕ M";

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.promoted_mutations, 1u);
  EXPECT_EQ(stats.deferred_transitions, 0u);
  EXPECT_EQ(stats.errors, 0u);
  server.Shutdown();
}

TEST_P(ServingTransportTest, MutateBehindItsOwnReadKeepsItsPlace) {
  RegisterBuiltinWorkerApps();
  const Graph graph = TwoIslandGraph();
  const std::vector<double> sssp_g = OracleSssp(graph);
  auto world = MakeTransport(GetParam(), kFrags + 1);
  ASSERT_TRUE(world.ok()) << world.status();
  ServeOptions opts = LoaderOptions(world->get(), &graph);
  opts.batch_window_ms = 200;
  ServeServer server(opts);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(ServeClient client, ServeClient::Connect(server.port()));

  // Both frames leave in one write: the read is admitted first.
  std::vector<uint8_t> wire;
  AppendRequest(1, kTagSvSssp, SourcePayload(0), &wire);
  AppendRequest(2, kTagSvMutate, MutationPayload(Bridge()), &wire);
  ASSERT_OK(client.SendRawBytes(wire.data(), wire.size()));
  std::vector<double> dist;
  ReadAnswer(client, 1, &dist);
  EXPECT_TRUE(BitEq(dist, sssp_g)) << "the read saw its own later write";
  uint32_t id = 0, tag = 0;
  std::vector<uint8_t> payload;
  ASSERT_OK(client.ReadRawFrame(&id, &tag, &payload));
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(tag, kTagSvOk);
  EXPECT_EQ(server.stats().promoted_mutations, 0u);
  server.Shutdown();
}

TEST_P(ServingTransportTest, MutateNeverJumpsAHeldReload) {
  RegisterBuiltinWorkerApps();
  // Epoch 1 serves the islands, epoch 2 the bridged graph, so a read's
  // bits tell which epoch answered it.
  const Graph islands = TwoIslandGraph();
  ASSERT_OK_AND_ASSIGN(const Graph bridged, ApplyMutations(islands, Bridge()));
  const std::vector<double> sssp_g = OracleSssp(islands);
  auto world = MakeTransport(GetParam(), kFrags + 1);
  ASSERT_TRUE(world.ok()) << world.status();
  std::atomic<int> loads{0};
  ServeOptions opts = LoaderOptions(world->get(), &islands);
  opts.batch_window_ms = 1000;
  opts.load_coordinator = [&]() -> Result<FragmentedGraph> {
    return MakeFragments(++loads == 1 ? islands : bridged, "hash", kFrags);
  };
  ServeServer server(opts);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(ServeClient a, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(ServeClient b, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(ServeClient c, ServeClient::Connect(server.port()));

  // A's read sits in its window, then B's Reload queues, then C's Mutate
  // queues behind the Reload.
  MutationBatch shortcut;
  shortcut.InsertEdge(3, 140, 1.0);
  shortcut.InsertEdge(140, 3, 1.0);
  std::vector<uint8_t> wire;
  AppendRequest(1, kTagSvSssp, SourcePayload(0), &wire);
  ASSERT_OK(a.SendRawBytes(wire.data(), wire.size()));
  LetAdmit();
  wire.clear();
  AppendRequest(2, kTagSvReload, {}, &wire);
  ASSERT_OK(b.SendRawBytes(wire.data(), wire.size()));
  LetAdmit();
  wire.clear();
  AppendRequest(3, kTagSvMutate, MutationPayload(shortcut), &wire);
  ASSERT_OK(c.SendRawBytes(wire.data(), wire.size()));

  std::vector<double> dist;
  ReadAnswer(a, 1, &dist);
  EXPECT_TRUE(BitEq(dist, sssp_g)) << "the Reload ran ahead of the wave";
  uint32_t id = 0, tag = 0;
  std::vector<uint8_t> payload;
  ASSERT_OK(b.ReadRawFrame(&id, &tag, &payload));
  ASSERT_EQ(tag, kTagSvOk);
  ASSERT_OK(c.ReadRawFrame(&id, &tag, &payload));
  ASSERT_EQ(tag, kTagSvOk);
  Decoder dec(payload);
  uint64_t version = 0;
  ASSERT_OK(dec.ReadU64(&version));
  EXPECT_EQ(version, (2ull << 32) | 1u)
      << "the Mutate ran before the Reload it queued behind";
  EXPECT_EQ(server.stats().promoted_mutations, 0u);
  EXPECT_EQ(server.stats().reloads, 1u);
  server.Shutdown();
}

TEST_P(ServingTransportTest, ReadsBehindAPromotedMutateJoinTheWave) {
  RegisterBuiltinWorkerApps();
  const Graph graph = TwoIslandGraph();
  ASSERT_OK_AND_ASSIGN(Graph bridged, ApplyMutations(graph, Bridge()));
  const std::vector<double> sssp_gm = OracleSssp(bridged);
  auto world = MakeTransport(GetParam(), kFrags + 1);
  ASSERT_TRUE(world.ok()) << world.status();
  ServeOptions opts = LoaderOptions(world->get(), &graph);
  opts.batch_window_ms = 2000;
  ServeServer server(opts);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(ServeClient a, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(ServeClient b, ServeClient::Connect(server.port()));
  const ServeStats before = server.stats();

  std::vector<uint8_t> wire;
  AppendRequest(1, kTagSvSssp, SourcePayload(0), &wire);
  ASSERT_OK(a.SendRawBytes(wire.data(), wire.size()));
  LetAdmit();
  // B's read queues behind its own Mutate, which jumps A's wave.
  wire.clear();
  AppendRequest(2, kTagSvMutate, MutationPayload(Bridge()), &wire);
  AppendRequest(3, kTagSvSssp, SourcePayload(0), &wire);
  ASSERT_OK(b.SendRawBytes(wire.data(), wire.size()));

  uint32_t id = 0, tag = 0;
  std::vector<uint8_t> payload;
  ASSERT_OK(b.ReadRawFrame(&id, &tag, &payload));
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(tag, kTagSvOk);
  std::vector<double> dist_b;
  ReadAnswer(b, 3, &dist_b);
  EXPECT_TRUE(BitEq(dist_b, sssp_gm));
  std::vector<double> dist_a;
  ReadAnswer(a, 1, &dist_a);
  EXPECT_TRUE(BitEq(dist_a, sssp_gm));

  const ServeStats after = server.stats();
  EXPECT_EQ(after.promoted_mutations - before.promoted_mutations, 1u);
  EXPECT_EQ(after.waves - before.waves, 1u)
      << "the read behind the write ran in a wave of its own";
  EXPECT_EQ(after.fused_queries - before.fused_queries, 2u);
  EXPECT_EQ(after.errors, 0u);
  server.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Transports, ServingTransportTest,
                         ::testing::Values("inproc", "tcp"));

// Admission-time answers keep per-connection order: a ComponentLabels
// pipelined right behind a Mutate on the same connection must see the
// batch, even though a current CC answer was servable the moment before.
TEST(ServingTest, AdmissionAnswersKeepConnectionOrder) {
  RegisterBuiltinWorkerApps();
  const Graph graph = TwoIslandGraph();
  auto world = MakeTransport("inproc", kFrags + 1);
  ASSERT_TRUE(world.ok()) << world.status();
  const MutationBatch bridge = Bridge();
  ASSERT_OK_AND_ASSIGN(Graph bridged, ApplyMutations(graph, bridge));
  const std::vector<VertexId> cc0 = OracleCc(graph);
  const std::vector<VertexId> cc1 = OracleCc(bridged);
  ASSERT_FALSE(BitEq(cc0, cc1));

  ServeServer server(LoaderOptions(world->get(), &graph));
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(ServeClient client, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(auto primed, client.ComponentLabels());
  EXPECT_TRUE(BitEq(primed, cc0));
  const uint64_t hits = server.stats().cache_hits;
  ASSERT_OK_AND_ASSIGN(auto again, client.ComponentLabels());
  EXPECT_TRUE(BitEq(again, cc0));
  EXPECT_EQ(server.stats().cache_hits, hits + 1);

  // Both frames leave in one write, so the reader admits them back to
  // back, before the dispatcher can have applied the batch.
  std::vector<uint8_t> wire;
  AppendRequest(100, kTagSvMutate, MutationPayload(bridge), &wire);
  AppendRequest(101, kTagSvCcLabel, {}, &wire);
  ASSERT_OK(client.SendRawBytes(wire.data(), wire.size()));
  uint32_t id = 0, tag = 0;
  std::vector<uint8_t> payload;
  ASSERT_OK(client.ReadRawFrame(&id, &tag, &payload));
  EXPECT_EQ(id, 100u);
  ASSERT_EQ(tag, kTagSvOk);
  ASSERT_OK(client.ReadRawFrame(&id, &tag, &payload));
  EXPECT_EQ(id, 101u);
  ASSERT_EQ(tag, kTagSvOk);
  Decoder dec(payload);
  std::vector<VertexId> labels;
  ASSERT_OK(dec.ReadPodVector(&labels));
  EXPECT_TRUE(BitEq(labels, cc1)) << "the pipelined read missed the batch";

  // A servable CC read behind a queued SSSP read on the same connection
  // waits its turn instead of overtaking it at admission.
  wire.clear();
  AppendRequest(102, kTagSvSssp, SourcePayload(0), &wire);
  AppendRequest(103, kTagSvCcLabel, {}, &wire);
  ASSERT_OK(client.SendRawBytes(wire.data(), wire.size()));
  ASSERT_OK(client.ReadRawFrame(&id, &tag, &payload));
  EXPECT_EQ(id, 102u) << "the CC answer overtook the SSSP read before it";
  EXPECT_EQ(tag, kTagSvOk);
  ASSERT_OK(client.ReadRawFrame(&id, &tag, &payload));
  EXPECT_EQ(id, 103u);
  EXPECT_EQ(tag, kTagSvOk);
  server.Shutdown();
}

// Readers served at admission beside a mutator (the TSan job runs this
// suite, so the answer hand-off between dispatcher and readers is
// race-checked): every answer is exactly one version's labels, and no
// reader ever sees versions go backwards.
TEST(ServingTest, ConcurrentCcReadersBesideMutator) {
  RegisterBuiltinWorkerApps();
  // Six 4-vertex paths; batch k joins path k-1 to path k.
  constexpr VertexId kBlocks = 6;
  GraphBuilder builder(/*directed=*/false);
  for (VertexId v = 0; v < 4 * kBlocks; ++v) {
    if (v % 4 != 3) builder.AddEdge(v, v + 1, 1.0);
  }
  ASSERT_OK_AND_ASSIGN(const Graph graph, std::move(builder).Build());
  auto labels_at = [](VertexId version) {
    std::vector<VertexId> labels(4 * kBlocks);
    for (VertexId v = 0; v < labels.size(); ++v) {
      labels[v] = v < 4 * (version + 1) ? 0 : v / 4 * 4;
    }
    return labels;
  };
  auto world = MakeTransport("inproc", kFrags + 1);
  ASSERT_TRUE(world.ok()) << world.status();
  ServeOptions opts = LoaderOptions(world->get(), &graph);
  opts.batch_window_ms = 1;
  ServeServer server(opts);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(ServeClient writer, ServeClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(auto first, writer.ComponentLabels());
  EXPECT_TRUE(BitEq(first, labels_at(0)));

  std::atomic<bool> done{false};
  std::atomic<uint32_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      auto client = ServeClient::Connect(server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      VertexId seen = 0;
      for (int reads = 0; reads < 20 || !done.load(); ++reads) {
        auto labels = client->ComponentLabels();
        VertexId version = seen;
        while (labels.ok() && version < kBlocks &&
               !BitEq(*labels, labels_at(version))) {
          ++version;
        }
        if (!labels.ok() || version == kBlocks) {
          failures.fetch_add(1);
          return;
        }
        seen = version;
      }
    });
  }
  for (VertexId k = 1; k < kBlocks; ++k) {
    MutationBatch join;
    join.InsertEdge(4 * k - 1, 4 * k, 1.0);
    join.InsertEdge(4 * k, 4 * k - 1, 1.0);
    ASSERT_OK(writer.Mutate(join).status());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  ASSERT_OK_AND_ASSIGN(auto last, writer.ComponentLabels());
  EXPECT_TRUE(BitEq(last, labels_at(kBlocks - 1)));
  EXPECT_EQ(server.stats().delta_refreshes, kBlocks - 1);
  EXPECT_EQ(server.stats().errors, 0u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Client-facing listener hardening: garbage and oversized frames get one
// error frame, then the connection dies; well-formed traffic on other
// connections is unaffected.

TEST(ServingTest, MalformedAndOversizedFramesRejected) {
  RegisterBuiltinWorkerApps();
  auto world = MakeTransport("inproc", 4);
  ASSERT_TRUE(world.ok()) << world.status();

  ServeOptions opts;
  opts.transport = world->get();
  opts.num_fragments = 3;
  opts.batch_window_ms = 0;
  opts.max_client_frame_bytes = 4096;
  opts.load_coordinator = []() -> Result<FragmentedGraph> {
    GRAPE_ASSIGN_OR_RETURN(Graph g, GeneratePath(8));
    auto partitioner = MakePartitioner("hash");
    GRAPE_RETURN_NOT_OK(partitioner.status());
    GRAPE_ASSIGN_OR_RETURN(auto assignment, (*partitioner)->Partition(g, 3));
    return FragmentBuilder::Build(g, assignment, 3);
  };
  ServeServer server(opts);
  ASSERT_OK(server.Start());

  struct Case {
    const char* name;
    std::vector<uint8_t> bytes;
  };
  std::vector<Case> cases;
  // Pure garbage: the declared payload length lands over the protocol
  // ceiling, so the header itself fails to decode.
  cases.push_back({"garbage header",
                   {0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad,
                    0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef}});
  // Valid header, hostile size: inside the 1 GiB protocol bound but over
  // this listener's 4 KiB per-connection budget — rejected before any
  // allocation.
  {
    FrameHeader h;
    h.from = 9;
    h.to = 0;
    h.tag = kTagSvSssp;
    h.payload_len = 1u << 20;
    std::vector<uint8_t> bytes(kFrameHeaderBytes);
    EncodeFrameHeader(h, bytes.data());
    cases.push_back({"oversized frame", std::move(bytes)});
  }
  // Well-formed frame, unknown tag: not a stream-sync loss, but nothing
  // sane can follow a request the protocol cannot name.
  {
    FrameHeader h;
    h.from = 11;
    h.to = 0;
    h.tag = 0x777;
    h.payload_len = 0;
    std::vector<uint8_t> bytes(kFrameHeaderBytes);
    EncodeFrameHeader(h, bytes.data());
    cases.push_back({"unknown tag", std::move(bytes)});
  }

  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(ServeClient probe,
                         ServeClient::Connect(server.port()));
    ASSERT_OK(probe.SendRawBytes(c.bytes.data(), c.bytes.size()));
    uint32_t id = 0, tag = 0;
    std::vector<uint8_t> payload;
    Status read = probe.ReadRawFrame(&id, &tag, &payload);
    ASSERT_TRUE(read.ok()) << c.name << ": " << read.ToString();
    EXPECT_EQ(tag, kTagSvError) << c.name;
    Status decoded = DecodeServeError(payload);
    EXPECT_FALSE(decoded.ok()) << c.name;
    // The connection must be closed after the error frame.
    Status eof = probe.ReadRawFrame(&id, &tag, &payload);
    EXPECT_TRUE(eof.IsUnavailable()) << c.name << ": " << eof.ToString();
  }
  EXPECT_EQ(server.stats().rejected_frames, cases.size());

  // A well-behaved connection still gets answers after all that abuse.
  ASSERT_OK_AND_ASSIGN(ServeClient good, ServeClient::Connect(server.port()));
  ASSERT_OK(good.Ping());
  ASSERT_OK_AND_ASSIGN(auto dist, good.Sssp(0));
  EXPECT_EQ(dist.size(), 8u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Shared-secret rank admission: an endpoint that does not know the
// cluster token is never admitted to the world — the rendezvous drops its
// hello and both sides fail instead of forming a mixed-secret mesh.

uint16_t GrabFreePort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  close(fd);
  return ntohs(addr.sin_port);
}

TEST(ServingTest, ClusterTokenMismatchRejectsEndpoint) {
  std::vector<HostPort> hosts = {{"127.0.0.1", GrabFreePort()},
                                 {"127.0.0.1", 0}};
  std::thread endpoint([hosts] {
    Status st = RunTcpEndpointProcess(/*rank=*/1, /*world_size=*/2, hosts[0],
                                      /*mesh_bind_port=*/0,
                                      /*timeout_ms=*/5000, "wrong-secret");
    EXPECT_FALSE(st.ok()) << "endpoint with the wrong token joined the world";
  });

  TcpOptions topts;
  topts.hosts = hosts;
  topts.rendezvous_timeout_ms = 5000;
  topts.cluster_token = "right-secret";
  auto world = TcpTransport::Create(2, topts);
  EXPECT_FALSE(world.ok())
      << "rendezvous completed despite a token-mismatched endpoint";
  endpoint.join();
}

}  // namespace
}  // namespace grape
