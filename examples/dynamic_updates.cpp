// Incremental evaluation across graph updates — the Q(G ⊕ M) form of
// IncEval from the paper's Sec. 2.1. A road network receives batches of
// newly built road segments; a query session keeps the fragments and the
// converged shortest-path answer resident in the worker hosts, each batch
// streams into them (ApplyMutations), and GrapeEngine::RunIncremental
// re-answers from the previous fixed point. The per-batch work is compared
// against the initial evaluation. The same stream runs on every transport
// (in-thread hosts on inproc, forked endpoint processes on tcp); the
// program exits non-zero if any answer differs from sequential Dijkstra.
//
// Flags: --rows --cols --batches

#include <cstdio>
#include <string>

#include "apps/register_apps.h"
#include "apps/seq/seq_algorithms.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/mutation.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "rt/transport.h"
#include "util/flags.h"
#include "util/random.h"

namespace {

using namespace grape;

constexpr FragmentId kFragments = 8;

uint64_t TotalUpdates(const EngineMetrics& m) {
  uint64_t total = 0;
  for (const RoundMetrics& r : m.rounds) total += r.updated_params;
  return total;
}

/// Streams `batches` update batches through one session on `transport`.
/// Returns false on an error or on any answer that differs from
/// SeqDijkstra over the updated graph.
bool RunStream(const std::string& transport, uint32_t rows, uint32_t cols,
               uint32_t batches) {
  auto graph = GenerateGridRoad(rows, cols, /*seed=*/55);
  if (!graph.ok()) return false;
  const VertexId n = graph->num_vertices();
  auto partitioner = MakePartitioner("grid2d");
  auto assignment = (*partitioner)->Partition(*graph, kFragments);
  if (!assignment.ok()) return false;
  auto fg = FragmentBuilder::Build(*graph, *assignment, kFragments);
  if (!fg.ok()) return false;

  auto world = MakeTransport(transport, kFragments + 1);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return false;
  }
  EngineOptions options;
  options.transport = world->get();
  options.remote_app = "sssp";
  GrapeEngine<SsspApp> engine(*fg, SsspApp{}, options);
  auto base = engine.SessionRun(SsspQuery{0});
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return false;
  }
  const uint64_t initial_updates = TotalUpdates(engine.metrics());
  std::printf("\n[%s] initial evaluation: %u supersteps, %llu parameter "
              "updates\n",
              transport.c_str(), engine.metrics().supersteps,
              static_cast<unsigned long long>(initial_updates));
  std::printf("%7s %14s %12s %10s %10s\n", "Batch", "NewSegments",
              "ParamUpd", "Steps", "Correct");

  Graph current = std::move(graph).value();
  bool all_correct = true;
  Rng rng(77);
  for (uint32_t batch = 1; batch <= batches; ++batch) {
    // Two random shortcut roads per batch.
    MutationBatch m;
    for (int e = 0; e < 2; ++e) {
      auto u = static_cast<VertexId>(rng.NextBounded(n));
      auto v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v) continue;
      double w = 1.0 + static_cast<double>(rng.NextBounded(3));
      m.InsertEdge(u, v, w);
      m.InsertEdge(v, u, w);
    }
    auto updated = ApplyMutations(current, m);
    if (!updated.ok()) return false;
    current = std::move(updated).value();

    Status applied = engine.ApplyMutations(m).status();
    auto out = applied.ok() ? engine.RunIncremental(SsspQuery{0}, m)
                            : Result<SsspOutput>(applied);
    if (!out.ok()) {
      std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
      return false;
    }
    const bool correct = out->dist == SeqDijkstra(current, 0);
    all_correct = all_correct && correct;
    std::printf("%7u %14zu %12llu %10u %10s\n", batch, m.size() / 2,
                static_cast<unsigned long long>(TotalUpdates(engine.metrics())),
                engine.metrics().supersteps, correct ? "yes" : "NO");
  }
  std::printf("incremental batches touch a vanishing fraction of the %llu "
              "updates the initial run needed\n",
              static_cast<unsigned long long>(initial_updates));
  return all_correct;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> kFlags = {"rows", "cols", "batches"};
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, kFlags); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const auto rows = static_cast<uint32_t>(flags.GetInt("rows", 90));
  const auto cols = static_cast<uint32_t>(flags.GetInt("cols", 90));
  const auto batches = static_cast<uint32_t>(flags.GetInt("batches", 5));

  // Endpoint processes resolve the app by name: register before forking.
  RegisterBuiltinWorkerApps();
  for (const std::string& transport : TransportNames()) {
    if (!RunStream(transport, rows, cols, batches)) return 1;
  }
  return 0;
}
