// grape_serve: the resident query-serving daemon. Loads a graph once,
// keeps the fragments resident in the worker endpoints, and answers
// client queries (serve/protocol.h over loopback TCP) until killed —
// the "load once, query forever" complement to the one-shot examples.
//
//   ./build/grape_serve [--transport=inproc|tcp]
//                       [--load=coordinator|distributed]
//                       [--workers=N] [--rows=R] [--cols=C]
//                       [--port=P] [--batch-window-ms=W]
//                       [--selftest] [--verbose]
//
// The demo graph is a rows x cols weighted road grid (large diameter, so
// point queries do real superstep work). --load=coordinator materializes
// it here and ships each fragment to its worker once per epoch;
// --load=distributed round-trips it through an edge-list file that the
// workers shard and assemble themselves — rank 0 never holds the graph.
//
// Queries arriving within --batch-window-ms of each other fuse: compatible
// same-class queries become one multi-source superstep wave (one lane per
// query), and CC/PageRank reads are answered from a standing answer that
// mutations refresh (CC, insert-only) or invalidate.
// Answers are bit-identical to one-at-a-time execution either way
// (tests/serving_test.cc pins this).
//
// --selftest starts the server, runs a sequential client pass, replays
// the same queries from concurrent clients, then streams a mutation
// batch (insert a shortcut, watch the answers move, delete it, watch the
// original bits come back) — and exits 0 only if every check agrees
// bit-for-bit, the insert (sent from a second connection while a read
// sat in its admission window) ran ahead of that read's wave, and the CC
// read after the insert was a delta-refreshed cache hit. This is what
// CI's serve smoke job runs.
//
// Daemon mode prints "serving on 127.0.0.1:<port>" and blocks until
// SIGINT/SIGTERM. Cluster flags (--rank/--hosts/--cluster-token) work as
// in quickstart: rank > 0 processes serve as transport endpoints.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/register_apps.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "rt/cluster.h"
#include "rt/distributed_load.h"
#include "rt/transport.h"
#include "serve/client.h"
#include "serve/serve.h"
#include "util/flags.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

/// Writes go first: sends `batch` from `writer` while `reader`'s SSSP
/// read from `source` sits in its admission window, so the dispatcher runs
/// the write ahead of the read's wave. The window is short, so an attempt
/// whose write misses it is repeated (the batch is an upsert). Returns the
/// write's version, and the read's answer in *read, once a write was
/// promoted; an error otherwise.
grape::Result<uint64_t> PromotedMutate(grape::ServeServer& server,
                                       grape::ServeClient& reader,
                                       grape::ServeClient& writer,
                                       const grape::MutationBatch& batch,
                                       grape::VertexId source, int window_ms,
                                       std::vector<double>* read) {
  using namespace grape;
  const auto head_start =
      std::chrono::microseconds(std::max(window_ms, 1) * 500);
  for (int attempt = 0; attempt < 20; ++attempt) {
    const uint64_t promoted = server.stats().promoted_mutations;
    Result<std::vector<double>> got = Status::Internal("read never ran");
    std::thread read_thread([&] { got = reader.Sssp(source); });
    std::this_thread::sleep_for(head_start);
    Result<uint64_t> version = writer.Mutate(batch);
    read_thread.join();
    GRAPE_RETURN_NOT_OK(version.status());
    GRAPE_RETURN_NOT_OK(got.status());
    if (server.stats().promoted_mutations > promoted) {
      *read = std::move(got).value();
      return version;
    }
  }
  return Status::Unavailable("no write landed inside a read's window");
}

/// Sequential pass vs concurrent pass over the same mixed query set;
/// returns false (after printing what diverged) unless every answer pair
/// is bit-identical and the cached classes actually hit their cache.
bool RunSelfTest(grape::ServeServer& server, uint32_t num_clients,
                 grape::VertexId num_vertices, int window_ms) {
  using namespace grape;
  const uint16_t port = server.port();
  const std::vector<VertexId> sources = {0, 7, 13, 42, 99, 128};

  // Sequential reference: one client, one query at a time.
  auto ref = ServeClient::Connect(port);
  if (!ref.ok()) {
    std::fprintf(stderr, "selftest connect: %s\n",
                 ref.status().ToString().c_str());
    return false;
  }
  std::vector<std::vector<double>> ref_dist;
  std::vector<std::vector<uint32_t>> ref_depth;
  for (VertexId s : sources) {
    auto d = ref->Sssp(s);
    auto b = ref->Bfs(s);
    if (!d.ok() || !b.ok()) {
      std::fprintf(stderr, "selftest sequential query failed: %s / %s\n",
                   d.status().ToString().c_str(),
                   b.status().ToString().c_str());
      return false;
    }
    ref_dist.push_back(std::move(*d));
    ref_depth.push_back(std::move(*b));
  }
  auto ref_cc = ref->ComponentLabels();
  auto ref_pr = ref->PageRank();
  if (!ref_cc.ok() || !ref_pr.ok()) {
    std::fprintf(stderr, "selftest cc/pagerank failed: %s / %s\n",
                 ref_cc.status().ToString().c_str(),
                 ref_pr.status().ToString().c_str());
    return false;
  }

  // Concurrent replay: every client fires the whole mix at once, so the
  // admission window sees real overlap and fuses waves.
  std::atomic<uint32_t> mismatches{0};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ServeClient::Connect(port);
      if (!client.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < sources.size(); ++i) {
        const size_t k = (i + c) % sources.size();  // desynchronize order
        auto d = client->Sssp(sources[k]);
        if (!d.ok() || *d != ref_dist[k]) mismatches.fetch_add(1);
        auto b = client->Bfs(sources[k]);
        if (!b.ok() || *b != ref_depth[k]) mismatches.fetch_add(1);
      }
      auto cc = client->ComponentLabels();
      if (!cc.ok() || *cc != *ref_cc) mismatches.fetch_add(1);
      auto pr = client->PageRank();
      if (!pr.ok() || *pr != *ref_pr) mismatches.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();

  const ServeStats stats = server.stats();
  std::printf(
      "selftest: %llu queries, %llu waves, %llu fused, %llu cache hits, "
      "%llu errors\n",
      (unsigned long long)stats.queries, (unsigned long long)stats.waves,
      (unsigned long long)stats.fused_queries,
      (unsigned long long)stats.cache_hits, (unsigned long long)stats.errors);
  if (mismatches.load() != 0) {
    std::fprintf(stderr,
                 "selftest FAILED: %u concurrent answers diverged from the "
                 "sequential reference\n",
                 mismatches.load());
    return false;
  }
  if (stats.cache_hits == 0) {
    std::fprintf(stderr,
                 "selftest FAILED: repeated CC/PageRank reads never hit the "
                 "standing answer\n");
    return false;
  }

  // Mutation smoke: stream a shortcut into the resident graph, watch the
  // answers move, delete it again, watch the original bits come back.
  // The insert jumps a read's wave, and that read answers over G ⊕ M.
  const VertexId far_corner = num_vertices - 1;
  MutationBatch add;
  add.InsertEdge(0, far_corner, 0.0625);
  add.InsertEdge(far_corner, 0, 0.0625);
  const ServeStats before_write = server.stats();
  auto reader = ServeClient::Connect(port);
  auto writer = ServeClient::Connect(port);
  if (!reader.ok() || !writer.ok()) {
    std::fprintf(stderr, "selftest connect: %s / %s\n",
                 reader.status().ToString().c_str(),
                 writer.status().ToString().c_str());
    return false;
  }
  std::vector<double> jumped;
  auto v1 = PromotedMutate(server, *reader, *writer, add, /*source=*/0,
                           window_ms, &jumped);
  if (!v1.ok()) {
    std::fprintf(stderr, "selftest FAILED: promoted mutate(insert): %s\n",
                 v1.status().ToString().c_str());
    return false;
  }
  if (jumped[far_corner] != 0.0625) {
    std::fprintf(stderr,
                 "selftest FAILED: the read a write jumped did not see it\n");
    return false;
  }
  // The standing CC answer survives the write: the insert-only batch
  // refreshes it by a bounded delta over CC's own warm slot, and the read
  // after it is a cache hit. An insert cannot split a component, so the
  // labels must not move either.
  auto cc_after = ref->ComponentLabels();
  if (!cc_after.ok() || *cc_after != *ref_cc) {
    std::fprintf(stderr,
                 "selftest FAILED: CC labels after an insert diverged: %s\n",
                 cc_after.status().ToString().c_str());
    return false;
  }
  const ServeStats after_write = server.stats();
  if (after_write.delta_refreshes <= before_write.delta_refreshes ||
      after_write.cache_hits <= before_write.cache_hits) {
    std::fprintf(stderr,
                 "selftest FAILED: the CC read after an insert-only mutate "
                 "was not a delta-refreshed cache hit (delta refreshes "
                 "%llu -> %llu, cache hits %llu -> %llu)\n",
                 (unsigned long long)before_write.delta_refreshes,
                 (unsigned long long)after_write.delta_refreshes,
                 (unsigned long long)before_write.cache_hits,
                 (unsigned long long)after_write.cache_hits);
    return false;
  }
  // SSSP kept its own warm slot through the write; it must see the
  // shortcut through the patched resident fragments.
  auto cold = ref->Sssp(0);
  if (!cold.ok() || (*cold)[far_corner] != 0.0625) {
    std::fprintf(stderr,
                 "selftest FAILED: inserted shortcut not visible to SSSP\n");
    return false;
  }
  MutationBatch del;
  del.DeleteEdge(0, far_corner);
  del.DeleteEdge(far_corner, 0);
  auto v2 = ref->Mutate(del);
  if (!v2.ok()) {
    std::fprintf(stderr, "selftest mutate(delete) failed: %s\n",
                 v2.status().ToString().c_str());
    return false;
  }
  auto restored = ref->Sssp(0);
  if (!restored.ok() || *restored != ref_dist[0]) {
    std::fprintf(stderr,
                 "selftest FAILED: deleting the shortcut did not restore the "
                 "original distances bit-for-bit\n");
    return false;
  }
  std::printf(
      "selftest: mutation stream ok (version %llu -> %llu, %llu promoted)\n",
      (unsigned long long)*v1, (unsigned long long)*v2,
      (unsigned long long)server.stats().promoted_mutations);

  std::printf("selftest PASSED: concurrent == sequential, bit for bit\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grape;

  const std::vector<std::string> kFlags = ClusterSpec::WithFlagNames(
      {"workers", "rows", "cols", "port", "transport", "load",
       "batch-window-ms", "selftest", "verbose"});
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, kFlags); !s.ok()) {
    std::fprintf(stderr, "flags: %s\n", s.ToString().c_str());
    return 2;
  }
  const std::string transport = flags.GetString("transport", "inproc");
  const std::string load = flags.GetString("load", "coordinator");
  if (load != "coordinator" && load != "distributed") {
    std::fprintf(stderr, "--load must be coordinator or distributed\n");
    return 2;
  }
  const auto workers = static_cast<FragmentId>(flags.GetInt("workers", 3));
  const auto rows = static_cast<uint32_t>(flags.GetInt("rows", 40));
  const auto cols = static_cast<uint32_t>(flags.GetInt("cols", 40));
  const auto port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const int window_ms = flags.GetInt("batch-window-ms", 2);
  const bool selftest = flags.GetBool("selftest", false);
  const bool verbose = flags.GetBool("verbose", false);

  auto cluster = ClusterSpec::FromFlags(flags);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    return 2;
  }
  RegisterBuiltinWorkerApps();
  int endpoint_exit = 0;
  if (RanAsClusterEndpoint(*cluster, transport, &endpoint_exit)) {
    return endpoint_exit;
  }

  auto world = MakeClusterTransport(transport, workers + 1, *cluster);
  if (!world.ok()) {
    std::fprintf(stderr, "transport: %s\n", world.status().ToString().c_str());
    return 1;
  }

  ServeOptions opts;
  opts.transport = world->get();
  opts.num_fragments = workers;
  opts.batch_window_ms = window_ms;
  opts.listen_port = port;
  opts.verbose = verbose;
  const std::string shard_path =
      "/tmp/grape_serve_grid_" + std::to_string(getpid()) + ".txt";
  if (load == "coordinator") {
    opts.load_coordinator = [=]() -> Result<FragmentedGraph> {
      GRAPE_ASSIGN_OR_RETURN(Graph graph, GenerateGridRoad(rows, cols, 11));
      GRAPE_ASSIGN_OR_RETURN(auto partitioner, MakePartitioner("metis"));
      GRAPE_ASSIGN_OR_RETURN(auto assignment,
                             partitioner->Partition(graph, workers));
      return FragmentBuilder::Build(graph, assignment, workers);
    };
  } else {
    opts.load_distributed =
        [=](Transport* w) -> Result<DistributedGraphMeta> {
      GRAPE_ASSIGN_OR_RETURN(Graph graph, GenerateGridRoad(rows, cols, 11));
      GRAPE_RETURN_NOT_OK(SaveEdgeListFile(graph, shard_path));
      DistributedLoadOptions dopt;
      dopt.path = shard_path;
      dopt.format.directed = true;
      dopt.format.has_weight = true;
      dopt.format.has_label = true;
      return DistributedLoad(w, dopt);
    };
  }

  ServeServer server(opts);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "serve start: %s\n", s.ToString().c_str());
    std::remove(shard_path.c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u (%s, %u workers, %s load, epoch %llu)\n",
              server.port(), (*world)->name().c_str(), workers, load.c_str(),
              (unsigned long long)server.epoch());
  std::fflush(stdout);

  int rc = 0;
  if (selftest) {
    rc = RunSelfTest(server, /*num_clients=*/4,
                     static_cast<VertexId>(rows) * cols, window_ms)
             ? 0
             : 1;
  } else {
    signal(SIGINT, HandleSignal);
    signal(SIGTERM, HandleSignal);
    while (!g_stop.load()) usleep(100 * 1000);
    std::printf("shutting down\n");
  }
  server.Shutdown();
  std::remove(shard_path.c_str());
  return rc;
}
