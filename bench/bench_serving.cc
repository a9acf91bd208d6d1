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
// Flags: --workers --scale --clients --queries (per client)
//        --batch-window-ms --mutation-batches --json <path>.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/ms_sssp.h"
#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "bench/bench_util.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/io.h"
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

/// Wave cost against lane count: a weighted road grid of about 2^scale
/// vertices (large diameter, so a wave is many supersteps of bounded
/// IncEval, like serving's point reads), metis-partitioned onto `world`.
/// The SsspApp session answers every source first; those answers are
/// both the reference row and the bits each fused lane must carry.
void RunWaveSweep(Transport* world, FragmentId workers, uint32_t scale,
                  Report* report) {
  constexpr int kReps = 9;
  const std::vector<size_t> lane_counts = {1, 2, 4, 8, 16};
  const auto side =
      static_cast<uint32_t>(std::lround(std::sqrt(std::ldexp(1.0, scale))));
  auto grid = GenerateGridRoad(side, side, /*seed=*/7);
  GRAPE_CHECK(grid.ok()) << grid.status();
  const VertexId n = grid->num_vertices();
  FragmentedGraph fg = Fragmentize(*grid, "metis", workers);
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

  MaybeWriteJson(flags, report);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace grape

int main(int argc, char** argv) { return grape::bench::Run(argc, argv); }
