// The launcher/roster layer (rt/cluster.h): host-list parsing, the
// --rank/--hosts contract, and a real cluster-mode tcp world on
// localhost — a rank-0 engine process whose rendezvous listener hands the
// roster to standalone endpoints that joined via RunClusterEndpoint
// (here: threads driving the same blocking endpoint code a remote
// machine's process would run), full-mesh traffic, and a clean
// coordinated shutdown that releases every endpoint.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "rt/cluster.h"
#include "rt/message.h"
#include "tests/message_path_scenarios.h"
#include "util/flags.h"

namespace grape {
namespace {

TEST(ClusterTest, ParseHostListAcceptsRosters) {
  auto hosts = ParseHostList("node-a:9000,node-b:9001,10.0.0.3:9002");
  ASSERT_TRUE(hosts.ok()) << hosts.status();
  ASSERT_EQ(hosts->size(), 3u);
  EXPECT_EQ((*hosts)[0], (HostPort{"node-a", 9000}));
  EXPECT_EQ((*hosts)[1], (HostPort{"node-b", 9001}));
  EXPECT_EQ((*hosts)[2], (HostPort{"10.0.0.3", 9002}));
  EXPECT_EQ(FormatHostList(*hosts), "node-a:9000,node-b:9001,10.0.0.3:9002");

  // A bare host means "ephemeral mesh port".
  auto bare = ParseHostList("solo");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ((*bare)[0], (HostPort{"solo", 0}));
}

TEST(ClusterTest, ParseHostListRejectsGarbage) {
  EXPECT_TRUE(ParseHostList("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseHostList("a:1,,b:2").status().IsInvalidArgument());
  EXPECT_TRUE(ParseHostList("a:notaport").status().IsInvalidArgument());
  EXPECT_TRUE(ParseHostList("a:99999").status().IsInvalidArgument());
  EXPECT_TRUE(ParseHostList(":9000").status().IsInvalidArgument());
}

const std::vector<std::string> kClusterFlags = ClusterSpec::WithFlagNames({});

ClusterSpec SpecFromArgs(std::vector<const char*> argv, bool expect_ok = true) {
  argv.insert(argv.begin(), "test");
  FlagParser flags;
  EXPECT_TRUE(
      flags.Parse(static_cast<int>(argv.size()), argv.data(), kClusterFlags)
          .ok());
  auto spec = ClusterSpec::FromFlags(flags);
  EXPECT_EQ(spec.ok(), expect_ok) << spec.status();
  return spec.ok() ? *spec : ClusterSpec{};
}

TEST(ClusterTest, SpecFromFlags) {
  ClusterSpec none = SpecFromArgs({});
  EXPECT_EQ(none.rank, 0u);
  EXPECT_TRUE(none.single_host());

  ClusterSpec two = SpecFromArgs({"--rank=1", "--hosts=a:9000,b:9001"});
  EXPECT_EQ(two.rank, 1u);
  ASSERT_EQ(two.hosts.size(), 2u);
  EXPECT_EQ(two.hosts[1], (HostPort{"b", 9001}));

  // A non-zero rank is an endpoint; it cannot run without a roster, and
  // the rank must name a roster entry.
  FlagParser bad_rank;
  const char* bad1[] = {"test", "--rank=2"};
  ASSERT_TRUE(bad_rank.Parse(2, bad1, kClusterFlags).ok());
  EXPECT_TRUE(ClusterSpec::FromFlags(bad_rank).status().IsInvalidArgument());
  FlagParser out_of_range;
  const char* bad2[] = {"test", "--rank=5", "--hosts=a:1,b:2"};
  ASSERT_TRUE(out_of_range.Parse(3, bad2, kClusterFlags).ok());
  EXPECT_TRUE(
      ClusterSpec::FromFlags(out_of_range).status().IsInvalidArgument());
  // hosts[0] is the address every endpoint dials, so an ephemeral port
  // there could never form a world — reject it up front rather than
  // letting both sides burn the rendezvous timeout.
  FlagParser eph_coord;
  const char* bad3[] = {"test", "--hosts=a,b:2"};
  ASSERT_TRUE(eph_coord.Parse(2, bad3, kClusterFlags).ok());
  EXPECT_TRUE(
      ClusterSpec::FromFlags(eph_coord).status().IsInvalidArgument());
}

TEST(ClusterTest, EndpointEntryPointValidatesItsRole) {
  ClusterSpec no_hosts;
  no_hosts.rank = 1;
  EXPECT_TRUE(RunClusterEndpoint(no_hosts).IsInvalidArgument());
  ClusterSpec rank0;
  rank0.hosts = {{"a", 1}, {"b", 2}};
  EXPECT_TRUE(RunClusterEndpoint(rank0).IsInvalidArgument());
}

TEST(ClusterTest, MakeClusterTransportGuardsItsInputs) {
  ClusterSpec spec;
  auto inproc = MakeClusterTransport("inproc", 3, spec);
  ASSERT_TRUE(inproc.ok()) << inproc.status();
  EXPECT_EQ((*inproc)->name(), "inproc");

  // A roster only makes sense for tcp.
  ClusterSpec with_hosts;
  with_hosts.hosts = {{"a", 1}, {"b", 2}};
  EXPECT_TRUE(
      MakeClusterTransport("inproc", 2, with_hosts).status()
          .IsInvalidArgument());
  // Only inproc and tcp are backends; "socket" is an unknown name.
  auto socket_backend = MakeTransport("socket", 2);
  EXPECT_TRUE(socket_backend.status().IsInvalidArgument());
  EXPECT_NE(socket_backend.status().message().find("inproc|tcp"),
            std::string::npos)
      << socket_backend.status();
  // Roster size must match the world (workers + coordinator).
  EXPECT_TRUE(
      MakeClusterTransport("tcp", 5, with_hosts).status()
          .IsInvalidArgument());
  // An ephemeral coordinator port is undialable (programmatic path; the
  // flag path rejects it in ClusterSpec::FromFlags).
  ClusterSpec eph_coord;
  eph_coord.hosts = {{"a", 0}, {"b", 2}};
  EXPECT_TRUE(
      MakeClusterTransport("tcp", 2, eph_coord).status()
          .IsInvalidArgument());
  EXPECT_TRUE(RunClusterEndpoint([] {
                ClusterSpec s;
                s.rank = 1;
                s.hosts = {{"a", 0}, {"b", 2}};
                return s;
              }())
                  .IsInvalidArgument());
}

/// Reserves a port the kernel considers free right now (bind :0, read it
/// back, close) — the standard racy-but-fine trick for test listeners.
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

TEST(ClusterTest, ClusterModeWorldOverLocalhost) {
  // A 4-rank world in explicit-roster mode: rank 0 = the engine process
  // (this test), ranks 1-3 = standalone endpoints running the exact code
  // a remote machine's `--transport=tcp --rank=N` process runs, each
  // dialing the rank-0 listener, receiving the roster, and full-meshing.
  constexpr uint32_t kRanks = 4;
  std::vector<HostPort> hosts(kRanks, HostPort{"127.0.0.1", 0});
  hosts[0].port = GrabFreePort();

  std::vector<std::thread> endpoints;
  for (uint32_t r = 1; r < kRanks; ++r) {
    endpoints.emplace_back([hosts, r] {
      ClusterSpec spec;
      spec.rank = r;
      spec.hosts = hosts;
      Status st = RunClusterEndpoint(spec);
      EXPECT_TRUE(st.ok()) << "endpoint rank " << r << ": " << st;
    });
  }

  // Stray clients hammer the rendezvous listener while real endpoints
  // join: one connects and immediately hangs up, one sends a full-size
  // garbage hello. Both must be dropped without aborting or wedging the
  // launch (the listener sits on a well-known port; probes happen).
  std::thread stray([port = hosts[0].port] {
    for (int kind = 0; kind < 2; ++kind) {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      int fd = -1;
      for (int tries = 0; tries < 2000; ++tries) {  // listener may not be up
        fd = socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
          break;
        }
        close(fd);
        fd = -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (fd < 0) return;  // world already formed and listener closed: fine
      if (kind == 1) {
        const uint8_t junk[12] = {0xde, 0xad, 0xbe, 0xef, 9, 9,
                                  9,    9,    9,    9,    9, 9};
        (void)!write(fd, junk, sizeof(junk));
      }
      close(fd);
    }
  });

  ClusterSpec spec;
  spec.hosts = hosts;
  auto made = MakeClusterTransport("tcp", kRanks, spec);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<Transport> t = std::move(made).value();
  EXPECT_EQ(t->name(), "tcp");
  EXPECT_EQ(t->size(), kRanks);

  // Full-mesh traffic: every ordered channel carries a tagged payload.
  for (uint32_t from = 0; from < kRanks; ++from) {
    for (uint32_t to = 0; to < kRanks; ++to) {
      ASSERT_TRUE(t->Send(from, to, kTagParamUpdate,
                          {static_cast<uint8_t>(from),
                           static_cast<uint8_t>(to)})
                      .ok());
    }
  }
  ASSERT_TRUE(t->Flush().ok());
  for (uint32_t to = 0; to < kRanks; ++to) {
    auto msgs = t->DrainAll(to);
    ASSERT_EQ(msgs.size(), kRanks) << "rank " << to;
    for (const auto& msg : msgs) {
      EXPECT_EQ(msg.payload[0], msg.from);
      EXPECT_EQ(msg.payload[1], to);
    }
  }
  EXPECT_EQ(t->stats().messages, kRanks * kRanks);

  // Coordinated shutdown: destroying the engine-side transport closes the
  // links, the endpoints drain the mesh and return OK, and nothing hangs.
  t.reset();
  for (auto& th : endpoints) th.join();
  stray.join();
}

TEST(ClusterTest, RemoteComputeRunsInsideEndpointProcesses) {
  // The headline of the remote-compute work: a live cluster-mode world in
  // which ranks > 0 are real OS processes running RunClusterEndpoint —
  // exactly what `--transport=tcp --rank=N` launches on another machine —
  // and PEval/IncEval execute IN those processes. The proof is twofold:
  // the per-rank compute counters the engine collects from worker acks,
  // and the acks' worker pids, which must be the forked endpoints' pids,
  // not this (engine) process's.
  RegisterBuiltinWorkerApps();  // endpoints snapshot the registry at fork

  constexpr uint32_t kRanks = 4;  // 3 workers + coordinator
  std::vector<HostPort> hosts(kRanks, HostPort{"127.0.0.1", 0});
  hosts[0].port = GrabFreePort();

  std::vector<pid_t> endpoint_pids;
  for (uint32_t r = 1; r < kRanks; ++r) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ClusterSpec spec;
      spec.rank = r;
      spec.hosts = hosts;
      Status st = RunClusterEndpoint(spec);
      _exit(st.ok() ? 0 : 1);
    }
    endpoint_pids.push_back(pid);
  }

  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "metis", kRanks - 1);

  // Local reference run (private inproc world) for the differential.
  EngineOptions local_options;
  GrapeEngine<SsspApp> local_engine(fg, SsspApp{}, local_options);
  auto local = local_engine.Run(SsspQuery{3});
  ASSERT_TRUE(local.ok()) << local.status();

  ClusterSpec spec;
  spec.hosts = hosts;
  auto made = MakeClusterTransport("tcp", kRanks, spec);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<Transport> world = std::move(made).value();

  EngineOptions options;
  options.transport = world.get();
  options.remote_app = "sssp";
  auto engine = std::make_unique<GrapeEngine<SsspApp>>(fg, SsspApp{},
                                                       options);
  auto remote = engine->Run(SsspQuery{3});
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(remote->dist, local->dist)
      << "remote compute diverged from local compute";

  const EngineMetrics m = engine->metrics();
  ASSERT_EQ(m.remote_peval_runs.size(), kRanks - 1);
  ASSERT_EQ(m.remote_inceval_runs.size(), kRanks - 1);
  ASSERT_EQ(m.remote_worker_pids.size(), kRanks - 1);
  ASSERT_GT(m.supersteps, 1u);
  const pid_t engine_pid = getpid();
  std::vector<pid_t> worker_pids;
  for (uint32_t i = 0; i < kRanks - 1; ++i) {
    // Every rank > 0 actually ran PEval once and IncEval every round.
    EXPECT_EQ(m.remote_peval_runs[i], 1u) << "worker " << i;
    EXPECT_EQ(m.remote_inceval_runs[i], m.supersteps - 1) << "worker " << i;
    // ...and did so in another OS process: the endpoint's.
    const pid_t wpid = static_cast<pid_t>(m.remote_worker_pids[i]);
    EXPECT_NE(wpid, engine_pid)
        << "worker " << i << " computed in the engine process";
    worker_pids.push_back(wpid);
  }
  std::sort(worker_pids.begin(), worker_pids.end());
  std::vector<pid_t> expected = endpoint_pids;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(worker_pids, expected)
      << "worker pids are not the forked endpoint processes";

  // Coordinated shutdown: endpoints drain and exit 0. The engine goes
  // first, since it releases its deposit on the world it ran on.
  engine.reset();
  world.reset();
  for (pid_t pid : endpoint_pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "endpoint " << pid << " exited abnormally";
  }
}

TEST(ClusterTest, RemoteComputeRejectsUnknownApp) {
  // An endpoint whose registry does not know the requested app must
  // reject the load with a clean NotFound that reaches the Run caller —
  // not crash, not hang. The tcp backend forks its endpoints at Create
  // time, before the engine's own-app auto-registration, so the children
  // genuinely lack the name.
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 3);
  auto world = MakeTransport("tcp", 4);
  ASSERT_TRUE(world.ok()) << world.status();
  EngineOptions options;
  options.transport = world->get();
  options.remote_app = "no_such_app_registered";
  options.remote_timeout_ms = 15000;
  GrapeEngine<SsspApp> engine(fg, SsspApp{}, options);
  auto out = engine.Run(SsspQuery{3});
  ASSERT_FALSE(out.ok()) << "engine ran an app no endpoint knows";
  EXPECT_TRUE(out.status().IsNotFound()) << out.status();
  EXPECT_NE(out.status().message().find("no_such_app_registered"),
            std::string::npos)
      << out.status();
}

}  // namespace
}  // namespace grape
