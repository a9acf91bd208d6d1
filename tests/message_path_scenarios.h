#ifndef GRAPE_TESTS_MESSAGE_PATH_SCENARIOS_H_
#define GRAPE_TESTS_MESSAGE_PATH_SCENARIOS_H_

// Deterministic engine scenarios whose communication counters and outputs
// are frozen as golden values (tests/message_path_golden_test.cc). The
// dense zero-hash message path must reproduce the seed path's observable
// behaviour bit for bit: same messages, same bytes, same superstep count,
// same output bits. The golden numbers were captured from the seed
// (hash-map) message path at commit ec95ff1 by running these exact
// scenarios; any routing refactor that changes them is a semantic change,
// not an optimization.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "rt/transport.h"

namespace grape {
namespace testing {

/// What a scenario run exposes for golden comparison.
struct MessagePathObservation {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint32_t supersteps = 0;
  /// FNV-1a over the raw little-endian bytes of the assembled output —
  /// "byte-identical results" in one number.
  uint64_t output_hash = 0;
};

inline uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
uint64_t HashVector(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return Fnv1a(v.data(), v.size() * sizeof(T), 0xcbf29ce484222325ULL);
}

inline FragmentedGraph ScenarioFragments(const Graph& g,
                                         const std::string& strategy,
                                         FragmentId workers) {
  auto partitioner = MakePartitioner(strategy);
  auto assignment = (*partitioner)->Partition(g, workers);
  auto fg = FragmentBuilder::Build(g, *assignment, workers);
  return std::move(fg).value();
}

inline Graph ScenarioGraph(const std::string& kind) {
  if (kind == "grid") {
    auto g = GenerateGridRoad(32, 32, 7);
    return std::move(g).value();
  }
  if (kind == "rmat") {
    RMatOptions opts;
    opts.scale = 8;
    opts.edge_factor = 6;
    opts.seed = 71;
    auto g = GenerateRMat(opts);
    return std::move(g).value();
  }
  // "er": undirected Erdos-Renyi for CC.
  auto g = GenerateErdosRenyi(300, 900, /*directed=*/false, 73);
  return std::move(g).value();
}

/// app is one of "sssp", "cc", "pagerank"; transport is a MakeTransport
/// backend name ("inproc" reproduces the engine's historical private
/// CommWorld; "tcp" runs the same scenario over forked endpoint
/// processes — observables must not change). compute is "local" (PEval /
/// IncEval inline in this process, the historical mode), "remote" (the
/// phases execute inside each rank's worker host — endpoint processes on
/// tcp, in-thread workers on inproc — and only messages, acks and
/// partials come back; observables must not change either) or "session"
/// (remote, answered twice through SessionRun on one engine: the cold
/// load, then the warm kTagWkQuery re-seed). Returns one observation per
/// answer.
inline std::vector<MessagePathObservation> RunMessagePathScenarioRuns(
    const std::string& app, const std::string& graph_kind,
    const std::string& strategy, FragmentId workers,
    const std::string& transport = "inproc",
    const std::string& compute = "local") {
  Graph g = ScenarioGraph(graph_kind);
  FragmentedGraph fg = ScenarioFragments(g, strategy, workers);
  if (compute != "local") {
    // Endpoint processes snapshot the worker registry when the transport
    // forks them — populate it first.
    RegisterBuiltinWorkerApps();
  }
  auto world = MakeTransport(transport, workers + 1);
  GRAPE_CHECK(world.ok()) << world.status();
  EngineOptions options;
  options.transport = world->get();
  if (compute != "local") options.remote_app = app;
  std::vector<MessagePathObservation> runs;
  auto observe = [&](auto& engine, const auto& query, auto hash) {
    const int answers = compute == "session" ? 2 : 1;
    for (int k = 0; k < answers; ++k) {
      auto out = compute == "session" ? engine.SessionRun(query)
                                      : engine.Run(query);
      GRAPE_CHECK(out.ok()) << out.status();
      MessagePathObservation obs;
      obs.output_hash = hash(*out);
      obs.messages = engine.metrics().messages;
      obs.bytes = engine.metrics().bytes;
      obs.supersteps = engine.metrics().supersteps;
      runs.push_back(obs);
    }
  };
  if (app == "sssp") {
    GrapeEngine<SsspApp> engine(fg, SsspApp{}, options);
    observe(engine, SsspQuery{3},
            [](const SsspOutput& o) { return HashVector(o.dist); });
  } else if (app == "cc") {
    GrapeEngine<CcApp> engine(fg, CcApp{}, options);
    observe(engine, CcQuery{},
            [](const CcOutput& o) { return HashVector(o.label); });
  } else {
    GrapeEngine<PageRankApp> engine(fg, PageRankApp{}, options);
    PageRankQuery query;
    query.max_iterations = 30;
    observe(engine, query,
            [](const PageRankOutput& o) { return HashVector(o.rank); });
  }
  return runs;
}

/// The single answer of a "local" or "remote" scenario run.
inline MessagePathObservation RunMessagePathScenario(
    const std::string& app, const std::string& graph_kind,
    const std::string& strategy, FragmentId workers,
    const std::string& transport = "inproc",
    const std::string& compute = "local") {
  return RunMessagePathScenarioRuns(app, graph_kind, strategy, workers,
                                    transport, compute)
      .front();
}

/// The frozen scenario matrix: SSSP/CC/PageRank across hash and METIS
/// partitions (the issue's coverage floor), plus a many-worker SSSP run.
struct MessagePathScenario {
  const char* name;
  const char* app;
  const char* graph;
  const char* strategy;
  FragmentId workers;
};

inline const std::vector<MessagePathScenario>& AllMessagePathScenarios() {
  static const std::vector<MessagePathScenario> kScenarios = {
      {"sssp_grid_hash4", "sssp", "grid", "hash", 4},
      {"sssp_grid_metis4", "sssp", "grid", "metis", 4},
      {"sssp_rmat_hash5", "sssp", "rmat", "hash", 5},
      {"sssp_rmat_metis7", "sssp", "rmat", "metis", 7},
      {"cc_er_hash6", "cc", "er", "hash", 6},
      {"cc_er_metis6", "cc", "er", "metis", 6},
      {"pagerank_rmat_hash4", "pagerank", "rmat", "hash", 4},
      {"pagerank_rmat_metis5", "pagerank", "rmat", "metis", 5},
  };
  return kScenarios;
}

}  // namespace testing
}  // namespace grape

#endif  // GRAPE_TESTS_MESSAGE_PATH_SCENARIOS_H_
