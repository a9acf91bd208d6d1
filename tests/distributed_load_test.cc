// Distributed graph loading (rt/distributed_load.h): each worker builds
// its own fragment from its byte-range shard of an edge-list file, and
// rank 0 orchestrates without ever materializing the graph. Gates:
//
//  1. Bit identity — distributed-built fragments are byte-for-byte equal
//     to a coordinator FragmentBuilder::Build over LoadEdgeListFile of the
//     same file with the same assignment (both paths run the same two
//     build halves; the exchange key restores whole-file edge order).
//  2. The golden matrix — every frozen scenario, rebuilt distributed on
//     every backend and computed remotely, reproduces the seed goldens:
//     messages, bytes, supersteps, output hash.
//  3. Coordinator purity — rank 0 sees shard metadata and shape acks
//     only: no edge- or mirror-bearing frame reaches it, and no fragment
//     is ever resident in the coordinator process on endpoint backends.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "partition/partitioner.h"
#include "rt/distributed_load.h"
#include "rt/remote_worker.h"
#include "tests/message_path_scenarios.h"
#include "tests/probing_transport.h"
#include "tests/test_util.h"

namespace grape {
namespace {

EdgeListFormat SavedFormat(bool directed) {
  // SaveEdgeListFile writes "src dst weight label".
  EdgeListFormat format;
  format.directed = directed;
  format.has_weight = true;
  format.has_label = true;
  return format;
}

std::string WriteScenarioFile(const Graph& g, const std::string& name) {
  std::string path = ::testing::TempDir() + "/grape_dist_" + name + "_" +
                     std::to_string(getpid()) + ".txt";
  Status s = SaveEdgeListFile(g, path);
  GRAPE_CHECK(s.ok()) << s;
  return path;
}

/// Resolves the scenario's load options against `path`: the hash strategy
/// maps onto the protocol's in-worker hash policy (the same SplitMix64
/// arithmetic HashPartitioner applies), everything else ships the
/// partitioner's assignment explicitly.
DistributedLoadOptions ScenarioLoadOptions(
    const std::string& path, const EdgeListFormat& format,
    const std::string& strategy, FragmentId workers) {
  DistributedLoadOptions opt;
  opt.path = path;
  opt.format = format;
  if (strategy == "hash") {
    opt.partitioner = "hash";
    return opt;
  }
  auto g = LoadEdgeListFile(path, format);
  GRAPE_CHECK(g.ok()) << g.status();
  auto partitioner = MakePartitioner(strategy);
  auto assignment = (*partitioner)->Partition(*g, workers);
  GRAPE_CHECK(assignment.ok()) << assignment.status();
  opt.partitioner = "explicit";
  opt.assignment = std::move(*assignment);
  return opt;
}

std::vector<uint8_t> FragmentBytes(const Fragment& frag) {
  Encoder enc;
  frag.EncodeTo(enc);
  return enc.TakeBuffer();
}

// ------------------------------------------------------------ bit identity

// For every frozen scenario: build the fragments the coordinator way
// (load the whole file at rank 0, FragmentBuilder::Build) and the
// distributed way (DistributedLoad over an inproc world, so the resident
// fragments are reachable in this process), and require byte equality of
// the full wire encoding — topology, labels, border flags, AND the
// complete routing plan.
TEST(DistributedLoadTest, FragmentsBitIdenticalToCoordinatorBuild) {
  for (const auto& s : testing::AllMessagePathScenarios()) {
    Graph g0 = testing::ScenarioGraph(s.graph);
    std::string path = WriteScenarioFile(g0, s.name);
    EdgeListFormat format = SavedFormat(g0.is_directed());
    DistributedLoadOptions opt =
        ScenarioLoadOptions(path, format, s.strategy, s.workers);

    auto g = LoadEdgeListFile(path, format);
    ASSERT_TRUE(g.ok()) << g.status();
    std::vector<FragmentId> assignment;
    if (opt.partitioner == "hash") {
      auto partitioner = MakePartitioner("hash");
      auto a = (*partitioner)->Partition(*g, s.workers);
      ASSERT_TRUE(a.ok()) << a.status();
      assignment = std::move(*a);
    } else {
      assignment = opt.assignment;
    }
    auto fg = FragmentBuilder::Build(*g, assignment, s.workers);
    ASSERT_TRUE(fg.ok()) << fg.status();

    auto world = MakeTransport("inproc", s.workers + 1);
    ASSERT_TRUE(world.ok()) << world.status();
    auto meta = DistributedLoad(world->get(), opt);
    ASSERT_TRUE(meta.ok()) << s.name << ": " << meta.status();
    EXPECT_EQ(meta->coordinator_data_frames, 0u) << s.name;
    EXPECT_EQ(meta->num_fragments, s.workers);
    EXPECT_EQ(meta->total_vertices, g->num_vertices()) << s.name;
    // total_edges counts parsed file lines; an undirected graph stores
    // each line as two directed arcs.
    const uint64_t arcs_per_line = format.directed ? 1 : 2;
    EXPECT_EQ(meta->total_edges * arcs_per_line, g->num_edges()) << s.name;

    for (FragmentId i = 0; i < s.workers; ++i) {
      auto frag =
          ResidentFragmentStore::Global().Get(meta->token, i + 1);
      ASSERT_NE(frag, nullptr)
          << s.name << ": fragment " << i << " not resident";
      EXPECT_EQ(meta->shapes[i].num_inner, frag->num_inner());
      EXPECT_EQ(meta->shapes[i].num_local, frag->num_local());
      EXPECT_EQ(meta->shapes[i].num_arcs, frag->num_edges());
      EXPECT_EQ(FragmentBytes(*frag), FragmentBytes(fg->fragments[i]))
          << s.name << ": fragment " << i
          << " is not bit-identical to the coordinator build";
    }
    ReleaseResident(world->get(), meta->token);
    std::remove(path.c_str());
  }
}

// ----------------------------------------------------------- golden cells

struct GoldenRow {
  const char* name;
  uint64_t messages;
  uint64_t bytes;
  uint32_t supersteps;
  uint64_t output_hash;
};

// The seed goldens of tests/message_path_golden_test.cc (keep in sync):
// distributed loading must not perturb a single observable.
const GoldenRow kGolden[] = {
    {"sssp_grid_hash4", 447ull, 485123ull, 31u, 0xc5bc6ee7b40deb61ull},
    {"sssp_grid_metis4", 20ull, 4108ull, 4u, 0xc5bc6ee7b40deb61ull},
    {"sssp_rmat_hash5", 85ull, 16365ull, 6u, 0x34f7a4ad403aaa9ull},
    {"sssp_rmat_metis7", 92ull, 11636ull, 5u, 0x34f7a4ad403aaa9ull},
    {"cc_er_hash6", 51ull, 13699ull, 3u, 0xcd7c9ef3fc5a729full},
    {"cc_er_metis6", 57ull, 13141ull, 3u, 0xcd7c9ef3fc5a729full},
    {"pagerank_rmat_hash4", 372ull, 142428ull, 31u, 0x4414656a78cc731full},
    {"pagerank_rmat_metis5", 434ull, 113566ull, 31u, 0x4414656a78cc731full},
};

/// One distributed run of a frozen scenario: write the scenario graph to
/// an edge file, build it distributed over `transport`, execute remotely
/// against the resident fragments, and observe.
testing::MessagePathObservation RunDistributedScenario(
    const testing::MessagePathScenario& s, const std::string& transport,
    uint64_t* coordinator_data_frames) {
  Graph g0 = testing::ScenarioGraph(s.graph);
  std::string path =
      WriteScenarioFile(g0, std::string(s.name) + "_" + transport);
  EdgeListFormat format = SavedFormat(g0.is_directed());
  DistributedLoadOptions opt =
      ScenarioLoadOptions(path, format, s.strategy, s.workers);

  // Endpoint processes snapshot the registry at fork: register first.
  RegisterBuiltinWorkerApps();
  auto world = MakeTransport(transport, s.workers + 1);
  GRAPE_CHECK(world.ok()) << world.status();
  auto meta = DistributedLoad(world->get(), opt);
  GRAPE_CHECK(meta.ok()) << s.name << " on " << transport << ": "
                         << meta.status();
  if (coordinator_data_frames != nullptr) {
    *coordinator_data_frames = meta->coordinator_data_frames;
  }

  EngineOptions options;
  options.transport = world->get();
  options.remote_app = s.app;
  testing::MessagePathObservation obs;
  const std::string app = s.app;
  if (app == "sssp") {
    GrapeEngine<SsspApp> engine(*meta, options);
    auto out = engine.Run(SsspQuery{3});
    GRAPE_CHECK(out.ok()) << out.status();
    obs.output_hash = testing::HashVector(out->dist);
    obs.messages = engine.metrics().messages;
    obs.bytes = engine.metrics().bytes;
    obs.supersteps = engine.metrics().supersteps;
  } else if (app == "cc") {
    GrapeEngine<CcApp> engine(*meta, options);
    auto out = engine.Run(CcQuery{});
    GRAPE_CHECK(out.ok()) << out.status();
    obs.output_hash = testing::HashVector(out->label);
    obs.messages = engine.metrics().messages;
    obs.bytes = engine.metrics().bytes;
    obs.supersteps = engine.metrics().supersteps;
  } else {
    GrapeEngine<PageRankApp> engine(*meta, options);
    PageRankQuery query;
    query.max_iterations = 30;
    auto out = engine.Run(query);
    GRAPE_CHECK(out.ok()) << out.status();
    obs.output_hash = testing::HashVector(out->rank);
    obs.messages = engine.metrics().messages;
    obs.bytes = engine.metrics().bytes;
    obs.supersteps = engine.metrics().supersteps;
  }
  ReleaseResident(world->get(), meta->token);
  std::remove(path.c_str());
  return obs;
}

struct DistributedGoldenCase {
  testing::MessagePathScenario scenario;
  std::string transport;
};

std::vector<DistributedGoldenCase> AllDistributedGoldenCases() {
  std::vector<DistributedGoldenCase> cases;
  for (const auto& s : testing::AllMessagePathScenarios()) {
    for (const std::string& t : TransportNames()) {
      cases.push_back(DistributedGoldenCase{s, t});
    }
  }
  return cases;
}

class DistributedLoadGoldenTest
    : public ::testing::TestWithParam<DistributedGoldenCase> {};

// Distributed-built fragments, remote compute, every backend: each cell
// must reproduce the seed goldens exactly, and the coordinator must have
// seen zero edge- or mirror-bearing frames.
TEST_P(DistributedLoadGoldenTest, MatchesSeedSemantics) {
  const auto& s = GetParam().scenario;
  const std::string& transport = GetParam().transport;
  const GoldenRow* golden = nullptr;
  for (const GoldenRow& row : kGolden) {
    if (std::string(row.name) == s.name) golden = &row;
  }
  ASSERT_NE(golden, nullptr) << "no golden row for scenario " << s.name;

  uint64_t coordinator_data_frames = ~0ull;
  testing::MessagePathObservation obs =
      RunDistributedScenario(s, transport, &coordinator_data_frames);
  EXPECT_EQ(coordinator_data_frames, 0u)
      << s.name << " on " << transport
      << ": edge or mirror frames reached the coordinator";
  EXPECT_EQ(obs.messages, golden->messages)
      << s.name << " on " << transport << "/distributed";
  EXPECT_EQ(obs.bytes, golden->bytes)
      << s.name << " on " << transport << "/distributed";
  EXPECT_EQ(obs.supersteps, golden->supersteps)
      << s.name << " on " << transport << "/distributed";
  EXPECT_EQ(obs.output_hash, golden->output_hash)
      << s.name << " on " << transport
      << "/distributed: output is not bit-identical to the seed path";
}

INSTANTIATE_TEST_SUITE_P(Matrix, DistributedLoadGoldenTest,
                         ::testing::ValuesIn(AllDistributedGoldenCases()),
                         [](const auto& info) {
                           return std::string(info.param.scenario.name) +
                                  "_" + info.param.transport;
                         });

// ----------------------------------------------------- coordinator purity

// On the tcp backend the fragments must be resident in the endpoint
// processes and ONLY there: the coordinator process's store stays empty
// for the build token, rank 0 receives no edge/mirror frame, and the
// engine runs the query end to end from shard metadata alone.
TEST(DistributedLoadTest, CoordinatorNeverMaterializesTheGraph) {
  Graph g0 = testing::ScenarioGraph("grid");
  std::string path = WriteScenarioFile(g0, "purity");
  DistributedLoadOptions opt;
  opt.path = path;
  opt.format = SavedFormat(g0.is_directed());
  RegisterBuiltinWorkerApps();
  auto world = MakeTransport("tcp", 5);
  ASSERT_TRUE(world.ok()) << world.status();
  auto meta = DistributedLoad(world->get(), opt);
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(meta->coordinator_data_frames, 0u);
  for (uint32_t rank = 0; rank <= 4; ++rank) {
    EXPECT_EQ(ResidentFragmentStore::Global().Get(meta->token, rank),
              nullptr)
        << "a fragment of the distributed build is resident in the "
        << "coordinator process (rank " << rank << ")";
  }

  EngineOptions options;
  options.transport = world->get();
  options.remote_app = "sssp";
  GrapeEngine<SsspApp> engine(*meta, options);
  auto out = engine.Run(SsspQuery{3});
  ASSERT_TRUE(out.ok()) << out.status();
  for (uint32_t rank = 0; rank <= 4; ++rank) {
    EXPECT_EQ(ResidentFragmentStore::Global().Get(meta->token, rank),
              nullptr)
        << "running the query materialized a fragment at the coordinator";
  }

  // Worlds stay multi-query with resident fragments too.
  auto again = engine.Run(SsspQuery{3});
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(out->dist, again->dist);
  std::remove(path.c_str());
}

// --------------------------------------------------------------- failures

TEST(DistributedLoadTest, WorkerSideParseErrorSurfacesAsStatus) {
  std::string path = ::testing::TempDir() + "/grape_dist_bad_" +
                     std::to_string(getpid()) + ".txt";
  {
    std::ofstream out(path);
    for (int i = 0; i < 50; ++i) out << i << " " << i + 1 << "\n";
    out << "this is not an edge\n";
    for (int i = 0; i < 50; ++i) out << i << " " << i + 2 << "\n";
  }
  DistributedLoadOptions opt;
  opt.path = path;
  opt.format = EdgeListFormat{};
  auto world = MakeTransport("inproc", 4);
  ASSERT_TRUE(world.ok());
  auto meta = DistributedLoad(world->get(), opt);
  ASSERT_FALSE(meta.ok()) << "malformed shard line went unnoticed";
  EXPECT_TRUE(meta.status().IsCorruption()) << meta.status();
  std::remove(path.c_str());
}

TEST(DistributedLoadTest, RejectsUndersizedExplicitAssignment) {
  Graph g0 = testing::ScenarioGraph("grid");
  std::string path = WriteScenarioFile(g0, "undersized");
  DistributedLoadOptions opt;
  opt.path = path;
  opt.format = SavedFormat(g0.is_directed());
  opt.partitioner = "explicit";
  opt.assignment.assign(g0.num_vertices() / 2, 0);  // half the universe
  auto world = MakeTransport("inproc", 4);
  ASSERT_TRUE(world.ok());
  auto meta = DistributedLoad(world->get(), opt);
  ASSERT_FALSE(meta.ok());
  EXPECT_TRUE(meta.status().IsInvalidArgument()) << meta.status();
  std::remove(path.c_str());
}

TEST(DistributedLoadTest, MissingFileFailsBeforeAnyFrame) {
  DistributedLoadOptions opt;
  opt.path = "/nonexistent/grape/edges.txt";
  auto world = MakeTransport("inproc", 4);
  ASSERT_TRUE(world.ok());
  auto meta = DistributedLoad(world->get(), opt);
  ASSERT_FALSE(meta.ok());
  EXPECT_TRUE(meta.status().IsIOError()) << meta.status();
}

TEST(DistributedLoadTest, ResidentLoadWithoutBuildIsNotFound) {
  // An engine pointed at a token no build produced must fail cleanly.
  Graph g0 = testing::ScenarioGraph("grid");
  DistributedGraphMeta meta;
  meta.token = 0xdeadbeefULL;  // never issued
  meta.num_fragments = 4;
  meta.total_vertices = g0.num_vertices();
  meta.shapes.assign(4, FragmentShape{1, 1, 0});
  auto world = MakeTransport("inproc", 5);
  ASSERT_TRUE(world.ok());
  EngineOptions options;
  options.transport = world->get();
  options.remote_app = "sssp";
  GrapeEngine<SsspApp> engine(meta, options);
  auto out = engine.Run(SsspQuery{3});
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsNotFound()) << out.status();
}

// The residency frames, fed straight into one worker host: a deposit is
// kept only when it decodes whole and belongs to the host's rank, a bad one
// is answered with kTagWkError, and a release is never answered — not even
// an unparseable one.
TEST(DistributedLoadTest, HostRejectsBadDepositsAndDropsBadReleases) {
  EXPECT_TRUE(IsWorkerTag(kTagWkDeposit)) << "tcp endpoints would relay it";
  EXPECT_TRUE(IsWorkerTag(kTagWkRelease));
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  struct Emitted {
    uint32_t to;
    uint32_t tag;
    std::vector<uint8_t> payload;
  };
  std::vector<Emitted> out;
  const uint32_t rank = 2;  // fragment 1
  RemoteWorkerHost host(rank, [&out](uint32_t to, uint32_t tag,
                                     std::vector<uint8_t> payload) {
    out.push_back(Emitted{to, tag, std::move(payload)});
    return Status::OK();
  });
  auto deposit = [](uint64_t token, const Fragment& frag) {
    Encoder enc;
    enc.WriteU64(token);
    frag.EncodeTo(enc);
    return enc.TakeBuffer();
  };
  const uint64_t truncated_token = 0x7472756e63ull;
  const uint64_t wrong_fid_token = 0x77666964ull;
  const uint64_t good_token = 0x676f6f64ull;

  std::vector<uint8_t> truncated = deposit(truncated_token, fg.fragments[1]);
  truncated.resize(truncated.size() / 2);
  ASSERT_OK(host.OnFrame(0, kTagWkDeposit, std::move(truncated)));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, kCoordinatorRank);
  ASSERT_EQ(out[0].tag, kTagWkError);
  EXPECT_TRUE(DecodeWorkerError(out[0].payload).IsCorruption())
      << DecodeWorkerError(out[0].payload);
  EXPECT_EQ(ResidentFragmentStore::Global().Get(truncated_token, rank),
            nullptr);

  ASSERT_OK(host.OnFrame(0, kTagWkDeposit,
                         deposit(wrong_fid_token, fg.fragments[0])));
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[1].tag, kTagWkError);
  EXPECT_TRUE(DecodeWorkerError(out[1].payload).IsInvalidArgument())
      << DecodeWorkerError(out[1].payload);
  EXPECT_EQ(ResidentFragmentStore::Global().Get(wrong_fid_token, rank),
            nullptr);

  ASSERT_OK(host.OnFrame(0, kTagWkRelease, {}));
  EXPECT_EQ(out.size(), 2u) << "an empty release was answered";

  // The control: a whole deposit is kept and acked with its shape, and its
  // release forgets it, silently.
  ASSERT_OK(host.OnFrame(0, kTagWkDeposit,
                         deposit(good_token, fg.fragments[1])));
  ASSERT_EQ(out.size(), 3u);
  ASSERT_EQ(out[2].tag, kTagWkBuildAck);
  Decoder dec(out[2].payload);
  WkBuildAck ack;
  ASSERT_OK(WkBuildAck::DecodeFrom(dec, &ack));
  EXPECT_EQ(ack.token, good_token);
  EXPECT_EQ(ack.num_local, fg.fragments[1].num_local());
  EXPECT_NE(ResidentFragmentStore::Global().Get(good_token, rank), nullptr);
  Encoder release;
  release.WriteU64(good_token);
  ASSERT_OK(host.OnFrame(0, kTagWkRelease, release.TakeBuffer()));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(ResidentFragmentStore::Global().Get(good_token, rank), nullptr);
}

// A deposit that fails on every rank leaves none of its errors queued at
// rank 0: the shared await takes every rank's answer before it returns the
// first error. Otherwise the next warm query wave of a live session on the
// same world — which, unlike a cold start, drains nothing — would fail on
// them.
TEST(DistributedLoadTest, FailedDepositLeavesNoErrorForTheNextWarmWave) {
  RegisterBuiltinWorkerApps();
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 3);
  GrapeEngine<SsspApp> local(fg, SsspApp{}, EngineOptions{});
  ASSERT_OK_AND_ASSIGN(SsspOutput expected, local.Run(SsspQuery{5}));
  for (const std::string& transport : TransportNames()) {
    SCOPED_TRACE(transport);
    auto inner = MakeTransport(transport, 4);
    ASSERT_TRUE(inner.ok()) << inner.status();
    testing::ProbingTransport world(std::move(inner).value());
    EngineOptions options;
    options.transport = &world;
    options.remote_app = "sssp";
    GrapeEngine<SsspApp> engine(fg, SsspApp{}, options);
    ASSERT_OK(engine.SessionRun(SsspQuery{3}).status());
    const uint64_t loads = world.loads();

    world.FailNextBuildAcks(3);  // every rank's deposit ack
    auto deposit = DepositFragments(&world, fg);
    ASSERT_FALSE(deposit.ok()) << "every deposit ack was turned into an error";
    EXPECT_TRUE(deposit.status().IsInternal()) << deposit.status();

    ASSERT_OK_AND_ASSIGN(SsspOutput warm, engine.SessionRun(SsspQuery{5}));
    EXPECT_EQ(world.loads(), loads) << "the second query was not warm";
    EXPECT_EQ(warm.dist, expected.dist);
    engine.EndSession();
  }
}

}  // namespace
}  // namespace grape
