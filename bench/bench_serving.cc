// Serving benchmark — the grape_serve daemon path: one resident graph,
// concurrent clients firing SSSP point queries at the admission loop.
// Reports client-observed p50/p99 latency and sustained queries/sec,
// once with the batching window closed (every query is its own wave)
// and once open (compatible queries fuse into multi-source waves), so
// the JSON shows what admission fusion buys on the same workload.
//
// A third section streams edge-mutation batches into the resident graph
// and re-answers incrementally (kTagSvMutate), against the cost of a full
// reload + recompute — the "time per mutation batch vs full reload" row.
//
// A fourth section prices one fused read wave against its lane count K
// (1, 2, 4, 8, 16) on a road grid, split into PEval, IncEval and
// assemble, beside a single-source SsspApp wave on the same world.
//
// A fifth section serves reads and writes together on that road grid:
// closed-loop SSSP readers beside one writer looping Mutate then
// ComponentLabels, with every answer checked against the sequential
// oracle at a graph version its request overlapped.
//
// Flags: --workers --scale --clients --queries (per client)
//        --batch-window-ms --mutation-batches --json <path>.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/ms_sssp.h"
#include "apps/register_apps.h"
#include "apps/seq/seq_algorithms.h"
#include "apps/sssp.h"
#include "bench/bench_util.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/mutation.h"
#include "rt/distributed_load.h"
#include "serve/client.h"
#include "serve/serve.h"
#include "util/timer.h"

namespace grape {
namespace bench {
namespace {

struct ServingRun {
  double p50_s = 0;
  double p99_s = 0;
  double qps = 0;
  uint64_t queries = 0;
  uint64_t waves = 0;
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// `clients` threads each issue `queries` SSSP requests back to back;
/// the batching window is what turns their overlap into fused waves.
ServingRun RunClients(uint16_t port, uint32_t clients, uint32_t queries,
                      VertexId num_vertices) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  WallTimer wall;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ServeClient::Connect(port);
      GRAPE_CHECK(client.ok()) << client.status();
      lat[c].reserve(queries);
      for (uint32_t q = 0; q < queries; ++q) {
        const VertexId source = (c * 2654435761u + q * 40503u) % num_vertices;
        WallTimer t;
        auto dist = client->Sssp(source);
        GRAPE_CHECK(dist.ok()) << dist.status();
        GRAPE_CHECK(dist->size() == num_vertices);
        lat[c].push_back(t.ElapsedSeconds());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double total_s = wall.ElapsedSeconds();

  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ServingRun run;
  run.p50_s = Percentile(all, 0.50);
  run.p99_s = Percentile(all, 0.99);
  run.queries = all.size();
  run.qps = total_s > 0 ? static_cast<double>(all.size()) / total_s : 0;
  return run;
}

void AddRows(const std::string& system, const ServingRun& run,
             Report* report) {
  auto add = [&](const std::string& category, double value) {
    ReportRow row;
    row.system = system;
    row.category = category;
    row.time_s = value;
    row.rounds = static_cast<uint32_t>(run.waves);
    row.messages = run.queries;
    report->Add(row);
  };
  add("p50_latency_s", run.p50_s);
  add("p99_latency_s", run.p99_s);
  add("queries_per_sec", run.qps);
}

/// Medians over the repetitions of one wave shape.
struct WaveCost {
  double wave_s = 0;
  double peval_s = 0;
  double inceval_s = 0;
  double assemble_s = 0;
  uint32_t supersteps = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

/// Runs `reps` warm session waves of `query` on `engine` and returns the
/// median of each cost, plus the last answer in `out`.
template <typename App>
WaveCost TimeWaves(GrapeEngine<App>& engine,
                   const typename App::QueryType& query, int reps,
                   typename App::OutputType* out) {
  std::vector<double> wave, peval, inceval, assemble;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    auto answer = engine.SessionRun(query);
    GRAPE_CHECK(answer.ok()) << answer.status();
    wave.push_back(t.ElapsedSeconds());
    const EngineMetrics& m = engine.metrics();
    peval.push_back(m.peval_seconds);
    inceval.push_back(m.inceval_seconds);
    assemble.push_back(m.assemble_seconds);
    *out = std::move(answer).value();
  }
  for (auto* v : {&wave, &peval, &inceval, &assemble}) {
    std::sort(v->begin(), v->end());
  }
  const EngineMetrics& m = engine.metrics();
  return WaveCost{Percentile(wave, 0.5),     Percentile(peval, 0.5),
                  Percentile(inceval, 0.5),  Percentile(assemble, 0.5),
                  m.supersteps,              m.messages,
                  m.bytes};
}

void AddWaveRows(const std::string& shape, const WaveCost& cost,
                 bool correct, Report* report) {
  auto add = [&](const std::string& split, double value) {
    ReportRow row;
    row.system = "grape_serve/wave";
    row.category = shape + "/" + split;
    row.time_s = value;
    row.comm_mb = static_cast<double>(cost.bytes) / (1024.0 * 1024.0);
    row.rounds = cost.supersteps;
    row.messages = cost.messages;
    row.correct = correct;
    report->Add(row);
  };
  add("wave_s", cost.wave_s);
  add("peval_s", cost.peval_s);
  add("inceval_s", cost.inceval_s);
  add("assemble_s", cost.assemble_s);
  std::printf("%-22s %12.3f %12.3f %12.3f %12.3f %8u %s\n", shape.c_str(),
              cost.wave_s * 1e3, cost.peval_s * 1e3, cost.inceval_s * 1e3,
              cost.assemble_s * 1e3, cost.supersteps,
              correct ? "" : "WRONG");
}

/// Side of the square road grid of about 2^scale vertices.
uint32_t GridSide(uint32_t scale) {
  return static_cast<uint32_t>(std::lround(std::sqrt(std::ldexp(1.0, scale))));
}

Graph RoadGrid(uint32_t side) {
  auto grid = GenerateGridRoad(side, side, /*seed=*/7);
  GRAPE_CHECK(grid.ok()) << grid.status();
  return std::move(grid).value();
}

/// Wave cost against lane count: a weighted road grid of about 2^scale
/// vertices (large diameter, so a wave is many supersteps of bounded
/// IncEval, like serving's point reads), metis-partitioned onto `world`.
/// The SsspApp session answers every source first; those answers are
/// both the reference row and the bits each fused lane must carry.
void RunWaveSweep(Transport* world, FragmentId workers, uint32_t scale,
                  Report* report) {
  constexpr int kReps = 9;
  const std::vector<size_t> lane_counts = {1, 2, 4, 8, 16};
  const uint32_t side = GridSide(scale);
  const Graph grid = RoadGrid(side);
  const VertexId n = grid.num_vertices();
  FragmentedGraph fg = Fragmentize(grid, "metis", workers);
  std::vector<VertexId> sources;
  for (size_t k = 0; k < lane_counts.back(); ++k) {
    sources.push_back(static_cast<VertexId>((k * 2654435761u + 17u) % n));
  }

  PrintHeader("Wave cost vs lanes (" + std::to_string(side) + "x" +
              std::to_string(side) + " road grid, metis, " +
              std::to_string(workers) + " workers, median of " +
              std::to_string(kReps) + " warm waves)");
  std::printf("%-22s %12s %12s %12s %12s %8s\n", "Shape", "wave(ms)",
              "peval(ms)", "inceval(ms)", "assemble(ms)", "Steps");

  EngineOptions eo;
  eo.transport = world;
  std::vector<std::vector<double>> want;
  {
    eo.remote_app = "sssp";
    GrapeEngine<SsspApp> sssp(fg, SsspApp{}, eo);
    SsspOutput out;
    const WaveCost cost = TimeWaves(sssp, SsspQuery{sources[0]}, kReps, &out);
    want.push_back(std::move(out.dist));
    for (size_t k = 1; k < sources.size(); ++k) {
      auto answer = sssp.SessionRun(SsspQuery{sources[k]});
      GRAPE_CHECK(answer.ok()) << answer.status();
      want.push_back(std::move(answer->dist));
    }
    sssp.EndSession();
    AddWaveRows("sssp", cost, true, report);
  }
  eo.remote_app = "ms_sssp";
  GrapeEngine<MsSsspApp> fused(fg, MsSsspApp{}, eo);
  for (size_t lanes : lane_counts) {
    MsSsspQuery query;
    query.sources.assign(sources.begin(), sources.begin() + lanes);
    MsSsspOutput out;
    const WaveCost cost = TimeWaves(fused, query, kReps, &out);
    bool correct = out.dist.size() == lanes;
    for (size_t k = 0; correct && k < lanes; ++k) {
      correct = out.dist[k].size() == want[k].size() &&
                std::memcmp(out.dist[k].data(), want[k].data(),
                            want[k].size() * sizeof(double)) == 0;
    }
    AddWaveRows("lanes=" + std::to_string(lanes), cost, correct, report);
  }
  fused.EndSession();
}

/// Insert-only batch `b` for a side x side grid: 8 edges, each joining a
/// vertex to the one two columns away, in both directions, with an
/// integer weight so every path length stays exact. An insert is an
/// upsert, so pairs the graph or an earlier batch already joins are
/// skipped: raising a weight would break the insert-only contract.
MutationBatch GridInsertBatch(const Graph& g, uint32_t side, uint32_t b,
                              std::set<std::pair<VertexId, VertexId>>* used) {
  MutationBatch m;
  const VertexId n = g.num_vertices();
  for (uint32_t i = 0; m.size() < 16; ++i) {
    const VertexId u = (b * 2654435761u + i * 40503u + 13u) % n;
    const VertexId v = u % side + 2 < side ? u + 2 : u - 2;
    const auto nbrs = g.OutNeighbors(u);
    const bool joined = std::any_of(nbrs.begin(), nbrs.end(),
                                    [v](const Neighbor& e) { return e.vertex == v; });
    if (joined || !used->insert(std::minmax(u, v)).second) continue;
    const double w = 1.0 + (b + i) % 10;
    m.InsertEdge(u, v, w);
    m.InsertEdge(v, u, w);
  }
  return m;
}

/// Reads and writes served together: `readers` closed-loop SSSP readers
/// of `queries` reads each, beside one writer that loops Mutate then
/// ComponentLabels `writes` times, releasing each write once the readers
/// have completed `readers` more reads. The graph is the metis road grid
/// of the wave sweep. A read is correct when its answer equals the
/// oracle at some version in its bracket: from the last write returned
/// when it was sent to the last write sent when its answer arrived. A
/// write is correct when its version is the next one and the labels read
/// after it equal the oracle at that version.
void RunMixed(Transport* world, FragmentId workers, uint32_t scale,
              uint32_t readers, uint32_t queries, uint32_t writes,
              int window_ms, Report* report) {
  const uint32_t side = GridSide(scale);
  const Graph grid = RoadGrid(side);
  const VertexId n = grid.num_vertices();
  std::vector<VertexId> sources;
  for (uint32_t k = 0; k < 8; ++k) {
    sources.push_back(static_cast<VertexId>((k * 2654435761u + 17u) % n));
  }
  // Version k is the grid with batches 1..k applied.
  std::vector<MutationBatch> batches;
  std::vector<std::vector<std::vector<double>>> dist;  // [version][source]
  std::vector<std::vector<VertexId>> labels;           // [version]
  {
    std::set<std::pair<VertexId, VertexId>> used;
    const Graph* g = &grid;
    Graph mutated;
    for (uint32_t k = 0;; ++k) {
      dist.emplace_back();
      for (VertexId s : sources) dist.back().push_back(SeqDijkstra(*g, s));
      labels.push_back(SeqConnectedComponents(*g));
      if (k == writes) break;
      batches.push_back(GridInsertBatch(grid, side, k, &used));
      auto next = ApplyMutations(*g, batches.back());
      GRAPE_CHECK(next.ok()) << next.status();
      mutated = std::move(next).value();
      g = &mutated;
    }
  }

  ServeOptions opts;
  opts.transport = world;
  opts.num_fragments = workers;
  opts.load_coordinator = [&]() -> Result<FragmentedGraph> {
    return Fragmentize(grid, "metis", workers);
  };
  opts.batch_window_ms = window_ms;
  ServeServer server(opts);
  Status started = server.Start();
  GRAPE_CHECK(started.ok()) << started;

  std::atomic<uint64_t> reads_done{0};
  std::atomic<uint32_t> writes_sent{0};
  std::atomic<uint32_t> writes_done{0};
  std::atomic<bool> reads_correct{true};
  std::vector<std::vector<double>> read_lat(readers);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      auto client = ServeClient::Connect(server.port());
      GRAPE_CHECK(client.ok()) << client.status();
      for (uint32_t q = 0; q < queries; ++q) {
        const size_t k = (c * 3 + q) % sources.size();
        const uint32_t lo = writes_done.load();
        WallTimer t;
        auto answer = client->Sssp(sources[k]);
        read_lat[c].push_back(t.ElapsedSeconds());
        const uint32_t hi = writes_sent.load();
        bool ok = false;
        for (uint32_t v = lo; answer.ok() && !ok && v <= hi; ++v) {
          ok = SsspMatches(*answer, dist[v][k]);
        }
        if (!ok) reads_correct.store(false);
        reads_done.fetch_add(1);
      }
    });
  }
  std::vector<double> write_lat;
  bool writes_correct = true;
  {
    auto client = ServeClient::Connect(server.port());
    GRAPE_CHECK(client.ok()) << client.status();
    const uint64_t total_reads = uint64_t{readers} * queries;
    uint64_t release_at = 0;
    for (uint32_t k = 1; k <= writes; ++k) {
      while (reads_done.load() < std::min(release_at, total_reads)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      writes_sent.store(k);
      WallTimer t;
      auto version = client->Mutate(batches[k - 1]);
      GRAPE_CHECK(version.ok()) << version.status();
      writes_done.store(k);
      auto cc = client->ComponentLabels();
      write_lat.push_back(t.ElapsedSeconds());
      writes_correct = writes_correct && cc.ok() &&
                       (*version & 0xffffffffu) == k && *cc == labels[k];
      release_at = reads_done.load() + readers;
    }
  }
  for (auto& t : threads) t.join();
  const ServeStats stats = server.stats();
  server.Shutdown();

  std::vector<double> all;
  for (auto& v : read_lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  std::sort(write_lat.begin(), write_lat.end());
  const double read_p50 = Percentile(all, 0.5);
  const double write_p50 = Percentile(write_lat, 0.5);

  PrintHeader("Reads beside writes (" + std::to_string(side) + "x" +
              std::to_string(side) + " road grid, metis, " +
              std::to_string(readers) + " SSSP readers x " +
              std::to_string(queries) + ", 1 writer x " +
              std::to_string(writes) + " Mutate + ComponentLabels)");
  std::printf("%-22s %12s %8s %9s %s\n", "Op", "p50(ms)", "Waves", "Promoted",
              "");
  std::printf("%-22s %12.3f %8llu %9s %s\n", "read", read_p50 * 1e3,
              static_cast<unsigned long long>(stats.waves), "-",
              reads_correct.load() ? "" : "WRONG");
  std::printf("%-22s %12.3f %8s %9llu %s\n", "write", write_p50 * 1e3, "-",
              static_cast<unsigned long long>(stats.promoted_mutations),
              writes_correct ? "" : "WRONG");
  auto add = [&](const std::string& category, double value, uint64_t ops,
                 bool correct) {
    ReportRow row;
    row.system = "grape_serve/mixed";
    row.category = category;
    row.time_s = value;
    row.rounds = stats.waves;
    row.messages = ops;
    row.correct = correct;
    report->Add(row);
  };
  add("read_p50_s", read_p50, all.size(), reads_correct.load());
  add("write_p50_s", write_p50, write_lat.size(), writes_correct);
}

int Run(int argc, char** argv) {
  const FlagParser flags =
      ParseBenchFlags(argc, argv, {"workers", "scale", "clients", "queries",
                                   "mutation-batches", "batch-window-ms"});
  const auto workers = static_cast<FragmentId>(flags.GetInt("workers", 4));
  const auto scale = static_cast<uint32_t>(flags.GetInt("scale", 12));
  const auto clients = static_cast<uint32_t>(flags.GetInt("clients", 8));
  const auto queries = static_cast<uint32_t>(flags.GetInt("queries", 24));
  const int window_ms = flags.GetInt("batch-window-ms", 4);
  RegisterBuiltinWorkerApps();
  Report report("serving");

  RMatOptions gopts;
  gopts.scale = scale;
  gopts.edge_factor = 8;
  gopts.seed = 7;
  auto graph = GenerateRMat(gopts);
  GRAPE_CHECK(graph.ok()) << graph.status();
  const VertexId num_vertices = graph->num_vertices();

  // No InThreadWorkers here: the engine sessions share the world's one
  // set (InThreadWorkers::Share) for inproc worlds.
  auto world = MakeTransport("inproc", workers + 1);
  GRAPE_CHECK(world.ok()) << world.status();

  PrintHeader("Serving (" + std::to_string(workers) + " workers, " +
              std::to_string(clients) + " clients x " +
              std::to_string(queries) + " SSSP queries, 2^" +
              std::to_string(scale) + " vertices)");
  std::printf("%-22s %12s %12s %12s %8s\n", "Mode", "p50(ms)", "p99(ms)",
              "queries/s", "Waves");

  // Two servers, same world: batching off, then on. Each Shutdown()
  // retires its sessions before the next Start() reuses the endpoints.
  for (const bool batched : {false, true}) {
    ServeOptions opts;
    opts.transport = world->get();
    opts.num_fragments = workers;
    opts.load_coordinator = [&]() -> Result<FragmentedGraph> {
      return Fragmentize(*graph, "hash", workers);
    };
    opts.batch_window_ms = batched ? window_ms : 0;
    opts.max_batch = clients;
    ServeServer server(opts);
    Status started = server.Start();
    GRAPE_CHECK(started.ok()) << started;

    ServingRun run = RunClients(server.port(), clients, queries, num_vertices);
    run.waves = server.stats().waves;
    server.Shutdown();

    const std::string mode = batched ? "batched" : "unbatched";
    std::printf("%-22s %12.3f %12.3f %12.1f %8llu\n", mode.c_str(),
                run.p50_s * 1e3, run.p99_s * 1e3, run.qps,
                static_cast<unsigned long long>(run.waves));
    AddRows("grape_serve/" + mode, run, &report);
  }

  // Incremental section: the cost of keeping a standing answer current.
  // The standing query is CC (computed once, then served from cache). A
  // mutation batch applies in place to the resident fragments and
  // refreshes the cached answer with a bounded IncEval delta riding the
  // warm session; the read after it is a cache hit. The alternative — a
  // full reload — re-runs the whole loading pipeline and pays a cold
  // session plus the full fixed point to get the same answer back. Each
  // side is timed through to the refreshed read. Distributed loading is
  // the serving configuration this is for (rank 0 never holds the
  // graph, so a mutation touches no coordinator-side copy either).
  {
    const auto batches =
        static_cast<uint32_t>(flags.GetInt("mutation-batches", 8));
    const uint32_t ops_per_batch = 8;
    const std::string path =
        "/tmp/grape_bench_serving_" + std::to_string(getpid()) + ".txt";
    Status saved = SaveEdgeListFile(*graph, path);
    GRAPE_CHECK(saved.ok()) << saved;
    ServeOptions opts;
    opts.transport = world->get();
    opts.num_fragments = workers;
    opts.load_distributed =
        [path](Transport* w) -> Result<DistributedGraphMeta> {
      DistributedLoadOptions dopt;
      dopt.path = path;
      dopt.format.directed = true;
      dopt.format.has_weight = true;
      dopt.format.has_label = true;
      return DistributedLoad(w, dopt);
    };
    opts.batch_window_ms = 0;
    ServeServer server(opts);
    Status started = server.Start();
    GRAPE_CHECK(started.ok()) << started;
    auto client = ServeClient::Connect(server.port());
    GRAPE_CHECK(client.ok()) << client.status();
    auto prime = client->ComponentLabels();  // standing query: warm CC
    GRAPE_CHECK(prime.ok()) << prime.status();

    WallTimer mt;
    for (uint32_t b = 0; b < batches; ++b) {
      MutationBatch m;
      for (uint32_t i = 0; i < ops_per_batch; ++i) {
        const VertexId src =
            (b * 2654435761u + i * 40503u + 13u) % num_vertices;
        const VertexId dst =
            (src + 1u + (b * 97u + i * 131u) % (num_vertices - 1)) %
            num_vertices;
        m.InsertEdge(src, dst, 0.5);
      }
      auto version = client->Mutate(m);
      GRAPE_CHECK(version.ok()) << version.status();
      auto answer = client->ComponentLabels();  // delta-refreshed cache hit
      GRAPE_CHECK(answer.ok()) << answer.status();
    }
    const double per_batch_s = mt.ElapsedSeconds() / batches;
    const uint64_t delta_refreshes = server.stats().delta_refreshes;
    GRAPE_CHECK(delta_refreshes == batches)
        << "a mutation batch missed the bounded delta path: "
        << delta_refreshes << "/" << batches;

    WallTimer rt;
    auto epoch = client->Reload();
    GRAPE_CHECK(epoch.ok()) << epoch.status();
    auto cold = client->ComponentLabels();  // full recompute
    GRAPE_CHECK(cold.ok()) << cold.status();
    const double reload_s = rt.ElapsedSeconds();
    server.Shutdown();
    std::remove(path.c_str());

    std::printf("%-22s %12.3f %12s %12s %8llu\n", "mutation_batch",
                per_batch_s * 1e3, "-", "-",
                static_cast<unsigned long long>(delta_refreshes));
    std::printf("%-22s %12.3f %12s %12s %8s\n", "full_reload",
                reload_s * 1e3, "-", "-", "-");
    ReportRow inc;
    inc.system = "grape_serve/incremental";
    inc.category = "mutation_batch_s";
    inc.time_s = per_batch_s;
    inc.messages = batches * ops_per_batch;
    report.Add(inc);
    ReportRow full;
    full.system = "grape_serve/incremental";
    full.category = "full_reload_s";
    full.time_s = reload_s;
    report.Add(full);
  }

  RunWaveSweep(world->get(), workers, scale, &report);
  RunMixed(world->get(), workers, scale, clients, queries,
           static_cast<uint32_t>(flags.GetInt("mutation-batches", 8)),
           window_ms, &report);

  MaybeWriteJson(flags, report);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace grape

int main(int argc, char** argv) { return grape::bench::Run(argc, argv); }
