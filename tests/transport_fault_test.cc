// Fault injection against the engine's message path: a FlakyTransport
// decorator drops, duplicates, delays, or hard-fails traffic between the
// engine and its substrate (wrapping any backend — inproc or tcp), and
// real endpoint processes of the multi-process tcp backend get SIGKILLed
// under a live world. The engine's contract under faults: hard failures
// surface as Status through DispatchSends/CoordinatorRoute/the Flush
// barrier (PR 2's error propagation) to the Run() caller within a bounded
// time; soft faults (drop/dup/delay) may change results but must never
// hang the fixed point.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/sssp.h"
#include "graph/io.h"
#include "gtest/gtest.h"
#include "rt/comm_world.h"
#include "rt/distributed_load.h"
#include "rt/flaky_transport.h"
#include "rt/remote_worker.h"
#include "rt/tcp_transport.h"
#include "tests/message_path_scenarios.h"
#include "tests/test_util.h"

namespace grape {
namespace {

struct SsspFixture {
  Graph graph;
  FragmentedGraph fg;

  static SsspFixture Make() {
    Graph g = testing::ScenarioGraph("grid");
    FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
    return SsspFixture{std::move(g), std::move(fg)};
  }

  Result<SsspOutput> Run(Transport* transport,
                         EngineMetrics* metrics = nullptr) {
    EngineOptions options;
    options.transport = transport;
    // A flaky substrate must terminate via the engine's fixpoint/termination
    // logic, not by us waiting forever; cap the rounds defensively.
    options.max_supersteps = 2000;
    GrapeEngine<SsspApp> engine(fg, SsspApp{}, options);
    auto out = engine.Run(SsspQuery{3});
    if (metrics != nullptr) *metrics = engine.metrics();
    return out;
  }
};

TEST(TransportFaultTest, InjectedSendFailureReachesRunCaller) {
  SsspFixture f = SsspFixture::Make();
  CommWorld inner(5);
  FlakyOptions fo;
  fo.fail_send_after = 3;  // fails inside the very first DispatchSends
  FlakyTransport flaky(&inner, fo);
  auto out = f.Run(&flaky);
  ASSERT_FALSE(out.ok()) << "engine swallowed an injected Send failure";
  EXPECT_TRUE(out.status().IsUnavailable()) << out.status();
}

TEST(TransportFaultTest, LateSendFailureHitsCoordinatorPathToo) {
  SsspFixture f = SsspFixture::Make();
  // First find how many sends a clean run issues, then fail somewhere in
  // the middle so the failing Send is a coordinator consolidated batch or
  // a later-superstep flush — the propagation paths differ.
  CommWorld clean(5);
  ASSERT_TRUE(f.Run(&clean).ok());
  const uint64_t total = clean.stats().messages;
  ASSERT_GT(total, 20u);

  CommWorld inner(5);
  FlakyOptions fo;
  fo.fail_send_after = total / 2;
  FlakyTransport flaky(&inner, fo);
  auto out = f.Run(&flaky);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable()) << out.status();
}

TEST(TransportFaultTest, DroppedMessagesNeverHangTheEngine) {
  SsspFixture f = SsspFixture::Make();
  for (uint64_t seed : {1ull, 7ull, 1234ull}) {
    CommWorld inner(5);
    FlakyOptions fo;
    fo.drop_rate = 0.2;
    fo.seed = seed;
    FlakyTransport flaky(&inner, fo);
    EngineMetrics metrics;
    auto out = f.Run(&flaky, &metrics);
    // Dropping update parameters can only under-inform workers: results
    // may be wrong, but the fixed point still terminates and Run returns.
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_GT(flaky.dropped(), 0u) << "fault plan injected nothing";
    EXPECT_LT(metrics.supersteps, 2000u) << "hit the defensive cap";
  }
}

TEST(TransportFaultTest, DuplicatesAreAbsorbedByIdempotentAggregation) {
  SsspFixture f = SsspFixture::Make();
  CommWorld clean_world(5);
  auto clean = f.Run(&clean_world);
  ASSERT_TRUE(clean.ok());

  CommWorld inner(5);
  FlakyOptions fo;
  fo.dup_rate = 0.3;
  fo.seed = 99;
  FlakyTransport flaky(&inner, fo);
  auto out = f.Run(&flaky);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(flaky.duplicated(), 0u) << "fault plan injected nothing";
  // min is idempotent: delivering an update twice must not change the
  // converged distances.
  EXPECT_EQ(out->dist, clean->dist);
}

TEST(TransportFaultTest, DelayedDeliveryNeverHangsAndOnlyOverEstimates) {
  SsspFixture f = SsspFixture::Make();
  CommWorld clean_world(5);
  auto clean = f.Run(&clean_world);
  ASSERT_TRUE(clean.ok());

  for (uint64_t seed : {7ull, 21ull, 77ull}) {
    CommWorld inner(5);
    FlakyOptions fo;
    fo.delay_rate = 0.25;
    fo.seed = seed;
    FlakyTransport flaky(&inner, fo);
    EngineMetrics metrics;
    auto out = f.Run(&flaky, &metrics);
    // Delay deliberately violates the Flush barrier contract, so a batch
    // released after the fixpoint check can be stranded — the engine's BSP
    // termination is only sound over a conforming substrate. The hard
    // guarantees under a non-conforming one: Run returns (no hang), and a
    // monotonic app only ever *over*-estimates, because every update that
    // does arrive carries a real path length.
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_GT(flaky.delayed(), 0u) << "fault plan injected nothing";
    EXPECT_LT(metrics.supersteps, 2000u) << "hit the defensive cap";
    ASSERT_EQ(out->dist.size(), clean->dist.size());
    for (size_t v = 0; v < out->dist.size(); ++v) {
      EXPECT_GE(out->dist[v], clean->dist[v])
          << "vertex " << v << " under-estimated under delay (seed " << seed
          << ")";
    }
  }
}

TEST(TransportFaultTest, FlakyOverTcpBackendPropagatesToo) {
  SsspFixture f = SsspFixture::Make();
  auto inner = MakeTransport("tcp", 5);
  ASSERT_TRUE(inner.ok()) << inner.status();
  FlakyOptions fo;
  fo.fail_send_after = 10;
  FlakyTransport flaky(inner->get(), fo);
  auto out = f.Run(&flaky);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable()) << out.status();
}

TEST(TransportFaultTest, FlushFailureSurfacesThroughDispatchSends) {
  // The barrier path gets its own hard fault: DispatchSends ends every
  // superstep's flush with a Flush() call, and a failure there must reach
  // the Run() caller like a Send failure does. This is the in-process
  // stand-in for an endpoint dying between supersteps, so it covers the
  // propagation route on every backend without process games.
  SsspFixture f = SsspFixture::Make();
  CommWorld inner(5);
  FlakyOptions fo;
  fo.fail_flush_after = 2;
  FlakyTransport flaky(&inner, fo);
  auto out = f.Run(&flaky);
  ASSERT_FALSE(out.ok()) << "engine swallowed an injected Flush failure";
  EXPECT_TRUE(out.status().IsUnavailable()) << out.status();
}

/// The endpoint pids of a forking backend; empty for inproc.
std::vector<pid_t> EndpointPids(Transport* transport) {
  auto* tt = dynamic_cast<TcpTransport*>(transport);
  return tt == nullptr ? std::vector<pid_t>{} : tt->endpoint_pids();
}

/// Kills one real endpoint process of `backend`, runs the engine over the
/// half-dead substrate, and requires a Status (through DispatchSends /
/// CoordinatorRoute / the Flush barrier) within a bounded time — never a
/// hang, never a crash. Process-backed backends only; inproc's equivalent
/// is the injected hard fault above.
void RunKilledEndpointScenario(const std::string& backend) {
  SsspFixture f = SsspFixture::Make();
  auto made = MakeTransport(backend, 5);
  ASSERT_TRUE(made.ok()) << made.status();
  Transport* transport = made->get();

  std::vector<pid_t> pids = EndpointPids(transport);
  ASSERT_EQ(pids.size(), 5u) << backend << " did not fork real endpoints";

  // A healthy barrier first, so the kill verifiably lands mid-world, then
  // SIGKILL a worker endpoint — no shutdown handshake, exactly like an
  // OOM-killed or power-cycled machine.
  ASSERT_TRUE(transport->Send(1, 2, kTagControl, {1}).ok());
  ASSERT_TRUE(transport->Flush().ok());
  ASSERT_EQ(kill(pids[3], SIGKILL), 0);
  ASSERT_EQ(waitpid(pids[3], nullptr, 0), pids[3]);
  // Wait until the transport itself has seen the death (its receiver hits
  // EOF and fails the barrier); otherwise a small engine run could race
  // the kernel and finish before the corpse is noticed.
  const auto seen_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (transport->Flush().ok()) {
    ASSERT_LT(std::chrono::steady_clock::now(), seen_by)
        << backend << " never noticed its killed endpoint";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  auto out = std::async(std::launch::async, [&f, transport] {
    return f.Run(transport);
  });
  if (out.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    // A wedged engine thread cannot be joined (the future's destructor
    // would block forever): fail fast and loudly instead of sitting out
    // the ctest timeout.
    ADD_FAILURE() << backend << ": engine hung on a killed endpoint "
                  << "instead of surfacing a Status";
    std::fflush(nullptr);
    std::abort();
  }
  auto result = out.get();
  ASSERT_FALSE(result.ok())
      << backend << ": engine computed a result over a dead endpoint";
  const Status& st = result.status();
  EXPECT_TRUE(st.IsUnavailable() || st.IsCancelled() || st.IsIOError()) << st;
}

TEST(TransportFaultTest, KilledTcpEndpointSurfacesStatusWithinDeadline) {
  RunKilledEndpointScenario("tcp");
}

// ---------------------------------------------------------------------------
// Remote-compute faults: PEval/IncEval execute inside the endpoint
// processes (EngineOptions::remote_app), so an endpoint death is now a
// *worker* death mid-computation, and soft faults hit the worker-protocol
// control frames too. Contract: the engine's remote superstep loop
// surfaces a Status within bounded time — never a hang, never a partial
// Assemble passed off as a result.
// ---------------------------------------------------------------------------

/// SSSP whose IncEval dawdles: keeps every worker verifiably
/// mid-IncEval for seconds, so a SIGKILL lands inside remote compute.
struct SlowIncEvalSssp : SsspApp {
  void IncEval(const SsspQuery& query, const Fragment& frag,
               ParamStore<double>& params,
               const std::vector<LocalId>& updated) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    SsspApp::IncEval(query, frag, params, updated);
  }
};

/// SSSP whose GetPartial dawdles: holds the world in the Assemble
/// phase long enough to kill a worker mid-partial-extraction.
struct SlowPartialSssp : SsspApp {
  PartialType GetPartial(const SsspQuery& query, const Fragment& frag,
                         const ParamStore<double>& params) const {
    std::this_thread::sleep_for(std::chrono::seconds(5));
    return SsspApp::GetPartial(query, frag, params);
  }
};

/// Kills a worker endpoint while remote compute is verifiably inside the
/// named phase, and requires the engine's Run to come back with a Status
/// within a bounded time. The slow app's per-phase sleeps dwarf the kill
/// delay, so the kill cannot race past the phase under test.
template <typename SlowApp>
void KillRemoteWorkerMidPhase(const std::string& backend,
                              const std::string& app_name, int kill_after_ms,
                              const char* phase) {
  // Endpoint children snapshot the registry at fork: register first.
  RegisterRemoteWorker<SlowApp>(app_name);
  SsspFixture f = SsspFixture::Make();
  auto made = MakeTransport(backend, 5);
  ASSERT_TRUE(made.ok()) << made.status();
  Transport* transport = made->get();
  std::vector<pid_t> pids = EndpointPids(transport);
  ASSERT_EQ(pids.size(), 5u) << backend << " did not fork real endpoints";

  EngineOptions options;
  options.transport = transport;
  options.max_supersteps = 2000;
  options.remote_app = app_name;
  options.remote_timeout_ms = 30000;
  GrapeEngine<SlowApp> engine(f.fg, SlowApp{}, options);
  auto out = std::async(std::launch::async,
                        [&engine] { return engine.Run(SsspQuery{3}); });

  std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
  ASSERT_EQ(kill(pids[3], SIGKILL), 0);
  ASSERT_EQ(waitpid(pids[3], nullptr, 0), pids[3]);

  if (out.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << backend << ": engine hung on a worker killed mid-"
                  << phase;
    std::fflush(nullptr);
    std::abort();
  }
  auto result = out.get();
  ASSERT_FALSE(result.ok())
      << backend << ": engine produced a result although a remote worker "
      << "was killed mid-" << phase;
  const Status& st = result.status();
  EXPECT_TRUE(st.IsUnavailable() || st.IsCancelled() || st.IsIOError()) << st;
}

TEST(TransportFaultTest, KilledRemoteWorkerMidIncEvalTcp) {
  // ~31 supersteps x 100ms sleeping IncEval >> the 600ms kill delay (the
  // first rounds alone take seconds), so the kill lands mid-IncEval.
  KillRemoteWorkerMidPhase<SlowIncEvalSssp>("tcp", "slow_inc_sssp", 600,
                                            "IncEval");
}

TEST(TransportFaultTest, KilledRemoteWorkerMidAssembleTcp) {
  // The fixpoint itself converges in well under a second; GetPartial then
  // sleeps 5s in every worker, so a 1.5s kill lands mid-Assemble and no
  // partial Assemble may be accepted.
  KillRemoteWorkerMidPhase<SlowPartialSssp>("tcp", "slow_partial_sssp", 1500,
                                            "Assemble");
}

/// Soft faults over the worker protocol: drop/dup/delay now hit control
/// frames (load, run commands, acks, apply batches), not just parameter
/// payloads. The engine must stay Status-clean: every run returns within
/// its remote deadline, either OK or with a Status — never a hang, and
/// never an abort.
TEST(TransportFaultTest, FlakyWorkerProtocolStaysStatusClean) {
  SsspFixture f = SsspFixture::Make();
  struct Case {
    const char* what;
    FlakyOptions fo;
  };
  std::vector<Case> cases;
  for (uint64_t seed : {1ull, 7ull, 99ull}) {
    FlakyOptions drop;
    drop.drop_rate = 0.05;
    drop.seed = seed;
    cases.push_back({"drop", drop});
    FlakyOptions dup;
    dup.dup_rate = 0.2;
    dup.seed = seed;
    cases.push_back({"dup", dup});
    FlakyOptions delay;
    delay.delay_rate = 0.15;
    delay.seed = seed;
    cases.push_back({"delay", delay});
  }
  for (const Case& c : cases) {
    CommWorld inner(5);
    FlakyTransport flaky(&inner, c.fo);
    EngineOptions options;
    options.transport = &flaky;
    options.max_supersteps = 2000;
    options.remote_app = "sssp";
    // Small deadline: a dropped control frame must time out promptly.
    options.remote_timeout_ms = 3000;
    GrapeEngine<SsspApp> engine(f.fg, SsspApp{}, options);
    auto fut = std::async(std::launch::async,
                          [&engine] { return engine.Run(SsspQuery{3}); });
    if (fut.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "remote run hung under flaky " << c.what << " (seed "
                    << c.fo.seed << ")";
      std::fflush(nullptr);
      std::abort();
    }
    auto result = fut.get();
    if (!result.ok()) {
      const Status& st = result.status();
      EXPECT_TRUE(st.IsUnavailable() || st.IsCancelled() || st.IsInternal() ||
                  st.IsFailedPrecondition() || st.IsIOError())
          << "flaky " << c.what << " (seed " << c.fo.seed
          << ") surfaced an unexpected status: " << st;
    }
  }
}

/// A hard Send failure in remote mode propagates exactly like local mode:
/// through the engine's control-plane sends instead of DispatchSends.
TEST(TransportFaultTest, RemoteComputeSendFailureReachesRunCaller) {
  SsspFixture f = SsspFixture::Make();
  CommWorld inner(5);
  FlakyOptions fo;
  fo.fail_send_after = 6;  // fails during load / first commands
  FlakyTransport flaky(&inner, fo);
  EngineOptions options;
  options.transport = &flaky;
  options.max_supersteps = 2000;
  options.remote_app = "sssp";
  options.remote_timeout_ms = 3000;
  GrapeEngine<SsspApp> engine(f.fg, SsspApp{}, options);
  auto out = engine.Run(SsspQuery{3});
  ASSERT_FALSE(out.ok()) << "engine swallowed an injected Send failure";
  EXPECT_TRUE(out.status().IsUnavailable()) << out.status();
}

/// A worker endpoint SIGKILLed during a distributed graph build
/// (rt/distributed_load.h): the coordinator's await loops must surface a
/// Status within bounded time — never hang on the missing shard or build
/// ack. The endpoint dies before its shard command arrives, so the kill
/// verifiably lands mid-protocol.
void KillEndpointMidDistributedLoad(const std::string& backend) {
  Graph g = testing::ScenarioGraph("grid");
  std::string path = ::testing::TempDir() + "/grape_fault_dist_" + backend +
                     "_" + std::to_string(getpid()) + ".txt";
  ASSERT_TRUE(SaveEdgeListFile(g, path).ok());

  auto made = MakeTransport(backend, 5);
  ASSERT_TRUE(made.ok()) << made.status();
  Transport* transport = made->get();
  std::vector<pid_t> pids = EndpointPids(transport);
  ASSERT_EQ(pids.size(), 5u) << backend << " did not fork real endpoints";
  ASSERT_EQ(kill(pids[2], SIGKILL), 0);
  ASSERT_EQ(waitpid(pids[2], nullptr, 0), pids[2]);

  DistributedLoadOptions opt;
  opt.path = path;
  opt.format.directed = true;
  opt.format.has_weight = true;
  opt.format.has_label = true;
  opt.timeout_ms = 30000;
  auto fut = std::async(std::launch::async, [transport, &opt] {
    return DistributedLoad(transport, opt);
  });
  if (fut.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << backend
                  << ": distributed load hung on a killed endpoint";
    std::fflush(nullptr);
    std::abort();
  }
  auto meta = fut.get();
  ASSERT_FALSE(meta.ok())
      << backend << ": distributed load reported success although a "
      << "worker endpoint was dead";
  const Status& st = meta.status();
  EXPECT_TRUE(st.IsUnavailable() || st.IsCancelled() || st.IsIOError()) << st;
  std::remove(path.c_str());
}

TEST(TransportFaultTest, KilledTcpEndpointMidDistributedLoad) {
  KillEndpointMidDistributedLoad("tcp");
}

TEST(TransportFaultTest, KilledTcpEndpointFailsDirectTransportOpsToo) {
  // Below the engine: the raw transport contract under a killed endpoint.
  // Flush must return (not hang) with a Status once the death is seen,
  // and Sends routed at the dead rank must start failing within a bounded
  // time instead of silently buffering forever.
  auto made = MakeTransport("tcp", 3);
  ASSERT_TRUE(made.ok()) << made.status();
  auto* tt = dynamic_cast<TcpTransport*>(made->get());
  ASSERT_NE(tt, nullptr);
  ASSERT_TRUE(tt->Send(0, 1, kTagControl, {1}).ok());
  ASSERT_TRUE(tt->Flush().ok());
  ASSERT_EQ(kill(tt->endpoint_pids()[1], SIGKILL), 0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    Status send_st = tt->Send(0, 1, kTagParamUpdate,
                              std::vector<uint8_t>(4096));
    Status flush_st = send_st.ok() ? tt->Flush() : Status::OK();
    if (!send_st.ok() || !flush_st.ok()) {
      break;  // the death surfaced as a Status — the contract held
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "killed endpoint never surfaced through Send/Flush";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ---------------------------------------------------------------------------
// SIGKILL recovery: with a CheckpointPolicy enabled, a worker endpoint
// killed mid-run is detected (its broken link wakes the coordinator's
// blocked await), the whole world is respawned, workers restore from the last
// checkpoint, and the finished run is bit-identical to the fault-free
// golden — same output hash, same CommStats counters, same superstep
// count. The FlakyTransport crash matrix in checkpoint_test.cc covers
// arbitrary frame offsets inproc; this is the real-process twin on the
// forked backends.
// ---------------------------------------------------------------------------

struct RecoveryGolden {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint32_t supersteps = 0;
  uint64_t hash = 0;
};

/// Fault-free golden observables for `AppT` as remote compute. Computed
/// over the inproc backend: the message-path golden matrix already
/// freezes that counters and outputs are backend-invariant.
template <typename AppT, typename QueryT, typename HashFn>
RecoveryGolden RemoteGolden(const char* app_name, const FragmentedGraph& fg,
                            QueryT query, HashFn hash_out) {
  RegisterBuiltinWorkerApps();
  CommWorld world(static_cast<uint32_t>(fg.fragments.size()) + 1);
  EngineOptions options;
  options.transport = &world;
  options.remote_app = app_name;
  options.max_supersteps = 2000;
  GrapeEngine<AppT> engine(fg, AppT{}, options);
  auto out = engine.Run(query);
  GRAPE_CHECK(out.ok()) << out.status();
  RecoveryGolden golden;
  golden.messages = engine.metrics().messages;
  golden.bytes = engine.metrics().bytes;
  golden.supersteps = engine.metrics().supersteps;
  golden.hash = hash_out(*out);
  return golden;
}

/// SIGKILLs the rank-2 endpoint at the end of superstep `kill_superstep`
/// (from the engine's on_superstep hook, so the kill lands at an exact,
/// reproducible point after that superstep's checkpoint) and requires the
/// recovered run to match `golden` bit for bit.
template <typename AppT, typename QueryT, typename HashFn>
void RunSigkillRecoveryScenario(const std::string& backend,
                                const char* app_name,
                                const FragmentedGraph& fg, QueryT query,
                                uint32_t kill_superstep, HashFn hash_out,
                                const RecoveryGolden& golden) {
  SCOPED_TRACE(backend + "/" + app_name + " killed at superstep " +
               std::to_string(kill_superstep));
  RegisterBuiltinWorkerApps();
  auto made = MakeTransport(backend, fg.fragments.size() + 1);
  ASSERT_TRUE(made.ok()) << made.status();
  Transport* transport = made->get();

  EngineOptions options;
  options.transport = transport;
  options.remote_app = app_name;
  options.max_supersteps = 2000;
  options.remote_timeout_ms = 60000;
  options.verbose = ::getenv("GRAPE_TEST_VERBOSE") != nullptr;
  options.checkpoint.every_k = 1;
  std::atomic<bool> killed{false};
  options.on_superstep = [&](uint32_t superstep) {
    if (superstep != kill_superstep || killed.exchange(true)) return;
    std::vector<int64_t> pids = transport->endpoint_process_ids();
    ASSERT_GT(pids.size(), 2u) << backend << " exposed no endpoint pids";
    ASSERT_GT(pids[2], 0);
    ASSERT_EQ(kill(static_cast<pid_t>(pids[2]), SIGKILL), 0);
  };

  GrapeEngine<AppT> engine(fg, AppT{}, options);
  const auto start = std::chrono::steady_clock::now();
  auto fut = std::async(std::launch::async,
                        [&engine, &query] { return engine.Run(query); });
  if (fut.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    ADD_FAILURE() << backend << "/" << app_name
                  << ": recovery hung instead of finishing or failing";
    std::fflush(nullptr);
    std::abort();
  }
  auto out = fut.get();
  // Far under remote_timeout_ms: the kill must wake the await, not the
  // deadline.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10))
      << "the killed endpoint was not seen until the await timed out";
  ASSERT_TRUE(killed.load()) << "run finished before superstep "
                             << kill_superstep << " — kill never landed";
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GE(engine.metrics().recoveries, 1u)
      << "engine produced a result without recovering a killed worker";
  EXPECT_EQ(hash_out(*out), golden.hash) << "recovered output diverged";
  EXPECT_EQ(engine.metrics().messages, golden.messages);
  EXPECT_EQ(engine.metrics().bytes, golden.bytes);
  EXPECT_EQ(engine.metrics().supersteps, golden.supersteps);

  // The rebuilt world's endpoints started with empty stores: the next
  // cold load deposits the fragments again instead of failing NotFound.
  auto again = engine.Run(query);
  ASSERT_TRUE(again.ok()) << "run after recovery: " << again.status();
  EXPECT_EQ(engine.metrics().recoveries, 0u);
  EXPECT_EQ(hash_out(*again), golden.hash);
  EXPECT_EQ(engine.metrics().messages, golden.messages);
}

TEST(TransportFaultTest, SigkilledWorkerRecoversBitIdenticalSssp) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  auto hash = [](const SsspOutput& o) { return testing::HashVector(o.dist); };
  RecoveryGolden golden = RemoteGolden<SsspApp>("sssp", fg, SsspQuery{3},
                                                hash);
  for (uint32_t k : {1u, 3u, 7u}) {
    RunSigkillRecoveryScenario<SsspApp>("tcp", "sssp", fg, SsspQuery{3}, k,
                                        hash, golden);
  }
}

TEST(TransportFaultTest, SigkilledWorkerRecoversBitIdenticalCcTcp) {
  Graph g = testing::ScenarioGraph("er");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 6);
  auto hash = [](const CcOutput& o) { return testing::HashVector(o.label); };
  RecoveryGolden golden = RemoteGolden<CcApp>("cc", fg, CcQuery{}, hash);
  RunSigkillRecoveryScenario<CcApp>("tcp", "cc", fg, CcQuery{}, 2, hash,
                                    golden);
}

TEST(TransportFaultTest, SigkilledWorkerRecoversBitIdenticalPageRankTcp) {
  Graph g = testing::ScenarioGraph("rmat");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  PageRankQuery query;
  query.max_iterations = 30;
  auto hash = [](const PageRankOutput& o) {
    return testing::HashVector(o.rank);
  };
  RecoveryGolden golden = RemoteGolden<PageRankApp>("pagerank", fg, query,
                                                    hash);
  RunSigkillRecoveryScenario<PageRankApp>("tcp", "pagerank", fg, query, 2,
                                          hash, golden);
}

}  // namespace
}  // namespace grape
