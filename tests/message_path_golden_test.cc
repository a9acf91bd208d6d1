// Differential guard for the engine's message path: the golden rows below
// were captured from the seed (hash-map) flush/route/apply at commit
// ec95ff1, running the scenarios in tests/message_path_scenarios.h. Every
// (scenario, transport backend, compute placement) combination — inproc
// and tcp, each with local compute (PEval/IncEval inline in the engine
// process) AND remote compute (the phases execute inside each rank's
// worker host: endpoint processes on tcp, in-thread workers on inproc),
// AND session compute (a cold then a warm SessionRun on one engine) —
// must reproduce them exactly: same message count, same byte count (the
// wire format is byte-count preserving, the tcp frame envelope equals
// the counted 16-byte header, and the worker protocol's
// control frames are invisible to the counters), same superstep count,
// and bit-identical outputs. A mismatch means routing semantics changed —
// or the substrate/placement leaked into the computation — which is a
// correctness bug, not a perf trade-off.

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "rt/remote_worker.h"
#include "rt/transport.h"
#include "tests/message_path_scenarios.h"
#include "tests/probing_transport.h"

namespace grape {
namespace {

struct GoldenRow {
  const char* name;
  uint64_t messages;
  uint64_t bytes;
  uint32_t supersteps;
  uint64_t output_hash;
};

// Captured from the seed engine; see file comment.
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

const std::vector<std::string>& ComputeModes() {
  static const std::vector<std::string> kModes = {"local", "remote",
                                                  "session"};
  return kModes;
}

/// One (scenario, backend, compute placement) cell of the matrix.
struct GoldenCase {
  testing::MessagePathScenario scenario;
  std::string transport;
  std::string compute;
};

std::vector<GoldenCase> AllGoldenCases() {
  std::vector<GoldenCase> cases;
  for (const auto& s : testing::AllMessagePathScenarios()) {
    for (const std::string& t : TransportNames()) {
      for (const std::string& c : ComputeModes()) {
        cases.push_back(GoldenCase{s, t, c});
      }
    }
  }
  return cases;
}

class MessagePathGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(MessagePathGoldenTest, MatchesSeedSemantics) {
  const auto& s = GetParam().scenario;
  const std::string& transport = GetParam().transport;
  const std::string& compute = GetParam().compute;
  const GoldenRow* golden = nullptr;
  for (const GoldenRow& row : kGolden) {
    if (std::string(row.name) == s.name) golden = &row;
  }
  ASSERT_NE(golden, nullptr) << "no golden row for scenario " << s.name;

  // Sessions answer twice (cold load, warm re-seed): both must hit the row.
  const std::vector<testing::MessagePathObservation> runs =
      testing::RunMessagePathScenarioRuns(s.app, s.graph, s.strategy,
                                          s.workers, transport, compute);
  ASSERT_EQ(runs.size(), compute == "session" ? 2u : 1u);
  for (size_t k = 0; k < runs.size(); ++k) {
    const testing::MessagePathObservation& obs = runs[k];
    const std::string where = std::string(s.name) + " on " + transport + "/" +
                              compute + " answer " + std::to_string(k + 1);
    EXPECT_EQ(obs.messages, golden->messages) << where;
    EXPECT_EQ(obs.bytes, golden->bytes) << where;
    EXPECT_EQ(obs.supersteps, golden->supersteps) << where;
    EXPECT_EQ(obs.output_hash, golden->output_hash)
        << where << ": output is not bit-identical to the seed path";
  }
}

// Determinism of the path itself: two runs of the same scenario must agree
// on every observable (the golden rows above are only meaningful if so).
// Runs once per backend, so tcp scheduling nondeterminism (poll order
// across senders) is shown not to leak into observables.
TEST(MessagePathGoldenTest, RunsAreDeterministic) {
  for (const std::string& transport : TransportNames()) {
    for (const auto& s : testing::AllMessagePathScenarios()) {
      auto a = testing::RunMessagePathScenario(s.app, s.graph, s.strategy,
                                               s.workers, transport);
      auto b = testing::RunMessagePathScenario(s.app, s.graph, s.strategy,
                                               s.workers, transport);
      EXPECT_EQ(a.messages, b.messages) << s.name << " on " << transport;
      EXPECT_EQ(a.bytes, b.bytes) << s.name << " on " << transport;
      EXPECT_EQ(a.output_hash, b.output_hash) << s.name << " on " << transport;
    }
  }
}

// Remote-compute determinism: worker acks and data frames arrive in
// scheduling-dependent order; none of it may leak into observables.
TEST(MessagePathGoldenTest, RemoteRunsAreDeterministic) {
  for (const std::string& transport : TransportNames()) {
    for (const auto& s : testing::AllMessagePathScenarios()) {
      auto a = testing::RunMessagePathScenario(s.app, s.graph, s.strategy,
                                               s.workers, transport, "remote");
      auto b = testing::RunMessagePathScenario(s.app, s.graph, s.strategy,
                                               s.workers, transport, "remote");
      EXPECT_EQ(a.messages, b.messages)
          << s.name << " on " << transport << "/remote";
      EXPECT_EQ(a.bytes, b.bytes) << s.name << " on " << transport
                                  << "/remote";
      EXPECT_EQ(a.output_hash, b.output_hash)
          << s.name << " on " << transport << "/remote";
    }
  }
}

// Worlds are multi-query: local compute has always supported repeated
// Run() calls over one transport, and remote compute must too — worker
// hosts reload on each run's kTagWkLoad and a retired in-thread worker
// must not leave frames behind that poison the next run. The graph
// crosses the world once: the engine deposits its fragments at the first
// cold load, and every later Run attaches to them by token.
TEST(MessagePathGoldenTest, RemoteWorldsAreReusableAcrossRuns) {
  for (const std::string& transport : TransportNames()) {
    RegisterBuiltinWorkerApps();
    auto inner = MakeTransport(transport, 5);
    ASSERT_TRUE(inner.ok()) << inner.status();
    testing::ProbingTransport world(std::move(inner).value());
    Graph g = testing::ScenarioGraph("grid");
    FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
    EngineOptions options;
    options.transport = &world;
    options.remote_app = "sssp";
    GrapeEngine<SsspApp> engine(fg, SsspApp{}, options);
    auto first = engine.Run(SsspQuery{3});
    ASSERT_TRUE(first.ok()) << transport << ": " << first.status();
    auto second = engine.Run(SsspQuery{3});
    ASSERT_TRUE(second.ok())
        << transport << ": second run over the same world: "
        << second.status();
    EXPECT_EQ(first->dist, second->dist)
        << transport << ": reruns over one world diverged";
    EXPECT_EQ(world.deposits(), 4u) << transport << ": deposited per run";
    EXPECT_EQ(world.loads(), 8u) << transport;
  }
}

// SSSP whose PEval stalls long past the impatient engine's phase budget:
// the deterministic way to abandon a remote run AFTER the worker hosts
// loaded successfully.
struct StallingPEvalSssp : SsspApp {
  void PEval(const SsspQuery& query, const Fragment& frag,
             ParamStore<double>& params) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    SsspApp::PEval(query, frag, params);
  }
};

// A failed remote run must not poison the world: when the engine gives up
// it retires the workers (EndSession's shutdown frames) while they may
// still be mid-phase, and the next run's kTagWkLoad must be honored as a
// fresh load — not rejected as a duplicate.
TEST(MessagePathGoldenTest, FailedRemoteRunDoesNotPoisonTheWorld) {
  RegisterBuiltinWorkerApps();
  RegisterRemoteWorker<StallingPEvalSssp>("stall_sssp");
  for (const std::string& transport : TransportNames()) {
    auto world = MakeTransport(transport, 5);
    ASSERT_TRUE(world.ok()) << world.status();
    Graph g = testing::ScenarioGraph("grid");
    FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);

    // Run 1: loads complete (they're fast), then every worker stalls in
    // PEval far past the 50ms phase budget — the engine abandons the run
    // with the workers loaded and mid-phase.
    EngineOptions impatient;
    impatient.transport = world->get();
    impatient.remote_app = "stall_sssp";
    impatient.remote_timeout_ms = 50;
    GrapeEngine<StallingPEvalSssp> doomed(fg, StallingPEvalSssp{},
                                          impatient);
    auto failed = doomed.Run(SsspQuery{3});
    ASSERT_FALSE(failed.ok()) << transport << ": stalled run succeeded?";
    EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status();

    // Run 2 on the SAME world must recover and produce the right answer.
    EngineOptions options;
    options.transport = world->get();
    options.remote_app = "sssp";
    GrapeEngine<SsspApp> engine(fg, SsspApp{}, options);
    auto out = engine.Run(SsspQuery{3});
    ASSERT_TRUE(out.ok()) << transport
                          << ": world poisoned by a failed run: "
                          << out.status();

    GrapeEngine<SsspApp> local(fg, SsspApp{}, EngineOptions{});
    auto expected = local.Run(SsspQuery{3});
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(out->dist, expected->dist) << transport;
  }
}

// The full differential in one place: for every scenario, run both
// backends × every compute placement side by side and compare the full
// observation structs pairwise — output hash AND CommStats (messages,
// bytes, supersteps). The matrix above already pins each cell to the seed
// goldens; this test additionally proves the cells agree with EACH OTHER,
// so it keeps discriminating even for scenarios added without golden
// rows. This is the merge gate remote compute rides in on: the substrate
// may change how bytes travel, and the placement may change where
// PEval/IncEval execute — never what is computed or counted.
TEST(MessagePathGoldenTest, BackendsAndPlacementsAgreeBitForBit) {
  ASSERT_GE(TransportNames().size(), 2u);
  for (const auto& s : testing::AllMessagePathScenarios()) {
    std::vector<std::pair<std::string, testing::MessagePathObservation>> runs;
    for (const std::string& transport : TransportNames()) {
      for (const std::string& compute : ComputeModes()) {
        for (const testing::MessagePathObservation& obs :
             testing::RunMessagePathScenarioRuns(s.app, s.graph, s.strategy,
                                                 s.workers, transport,
                                                 compute)) {
          runs.emplace_back(transport + "/" + compute, obs);
        }
      }
    }
    const auto& base = runs.front();
    for (size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].second.messages, base.second.messages)
          << s.name << ": " << runs[i].first << " vs " << base.first;
      EXPECT_EQ(runs[i].second.bytes, base.second.bytes)
          << s.name << ": " << runs[i].first << " vs " << base.first;
      EXPECT_EQ(runs[i].second.supersteps, base.second.supersteps)
          << s.name << ": " << runs[i].first << " vs " << base.first;
      EXPECT_EQ(runs[i].second.output_hash, base.second.output_hash)
          << s.name << ": " << runs[i].first << " computed different bits "
          << "than " << base.first;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, MessagePathGoldenTest,
                         ::testing::ValuesIn(AllGoldenCases()),
                         [](const auto& info) {
                           return std::string(info.param.scenario.name) + "_" +
                                  info.param.transport + "_" +
                                  info.param.compute;
                         });

}  // namespace
}  // namespace grape
