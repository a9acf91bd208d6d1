// Plug and play (Sec. 3's walk-through): the developer view and the end-user
// view of GRAPE.
//
// Part 1 (plug): a developer writes a brand-new PIE program — here
// single-source *widest path* (maximum bottleneck bandwidth), an algorithm
// not shipped with the library — by supplying sequential PEval/IncEval and
// a max aggregate. No vertex-centric recasting, no messaging code.
//
// Part 2 (play): an end user picks programs from the registry by name and
// runs textual queries against one deployment, like the demo's play panel.

#include <cstdio>
#include <queue>

#include "apps/register_apps.h"
#include "core/aggregators.h"
#include "core/app_registry.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"

namespace grape {
namespace {

struct WidestPathQuery {
  VertexId source = 0;
};

struct WidestPathOutput {
  std::vector<double> bandwidth;  // by gid; 0 = unreachable
};

/// PIE program for widest (maximum-bottleneck) paths. The update parameter
/// of v is the best bottleneck bandwidth from the source, monotonically
/// *increasing*, so the aggregate function is max — the mirror image of
/// Example 1's SSSP.
class WidestPathApp {
 public:
  using QueryType = WidestPathQuery;
  using ValueType = double;
  using AggregatorType = MaxAggregator<double>;
  using PartialType = std::vector<std::pair<VertexId, double>>;
  using OutputType = WidestPathOutput;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = false;

  ValueType InitValue() const { return 0.0; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<double>& params) {
    LocalId lid = frag.Lid(query.source);
    std::priority_queue<std::pair<double, LocalId>> heap;  // max-heap
    if (lid != kInvalidLocal && frag.IsInner(lid)) {
      params.Set(lid, kInfDistance);
      heap.push({kInfDistance, lid});
    }
    Grow(frag, params, heap);
  }

  void IncEval(const QueryType&, const Fragment& frag,
               ParamStore<double>& params,
               const std::vector<LocalId>& updated) {
    std::priority_queue<std::pair<double, LocalId>> heap;
    for (LocalId lid : updated) heap.push({params.Get(lid), lid});
    Grow(frag, params, heap);
  }

  PartialType GetPartial(const QueryType&, const Fragment& frag,
                         const ParamStore<double>& params) const {
    PartialType out;
    for (LocalId lid = 0; lid < frag.num_inner(); ++lid) {
      out.emplace_back(frag.Gid(lid), params.Get(lid));
    }
    return out;
  }

  static OutputType Assemble(const QueryType&,
                             std::vector<PartialType>&& partials) {
    WidestPathOutput out;
    VertexId max_gid = 0;
    for (const auto& p : partials) {
      for (const auto& [gid, b] : p) max_gid = std::max(max_gid, gid);
    }
    out.bandwidth.assign(max_gid + 1, 0.0);
    for (const auto& p : partials) {
      for (const auto& [gid, b] : p) out.bandwidth[gid] = b;
    }
    return out;
  }

  double GlobalValue() const { return 0.0; }

 private:
  static void Grow(const Fragment& frag, ParamStore<double>& params,
                   std::priority_queue<std::pair<double, LocalId>>& heap) {
    while (!heap.empty()) {
      auto [bw, v] = heap.top();
      heap.pop();
      if (bw < params.Get(v)) continue;
      for (const FragNeighbor& nb : frag.OutNeighbors(v)) {
        double nbw = std::min(bw, nb.weight);
        if (nbw > params.Get(nb.local)) {
          params.Set(nb.local, nbw);
          heap.push({nbw, nb.local});
        }
      }
    }
  }
};

}  // namespace
}  // namespace grape

int main() {
  using namespace grape;

  auto graph = GenerateGridRoad(60, 60, /*seed=*/2026, /*max_weight=*/100.0);
  if (!graph.ok()) return 1;
  auto partitioner = MakePartitioner("grid2d");
  auto assignment = (*partitioner)->Partition(*graph, 4);
  auto fg = FragmentBuilder::Build(*graph, *assignment, 4);

  // --- Part 1: plug a new PIE program and run it. ---
  GrapeEngine<WidestPathApp> engine(*fg, WidestPathApp{});
  auto widest = engine.Run(WidestPathQuery{0});
  if (!widest.ok()) return 1;
  double best = 0;
  VertexId far_v = 0;
  for (VertexId v = 1; v < widest->bandwidth.size(); ++v) {
    if (widest->bandwidth[v] > best && widest->bandwidth[v] < kInfDistance) {
      best = widest->bandwidth[v];
      far_v = v;
    }
  }
  std::printf("widest-path (plugged in as a new PIE program):\n");
  std::printf("  best reachable bandwidth %.0f at vertex %u, %u supersteps\n",
              best, far_v, engine.metrics().supersteps);

  // --- Part 2: play registered programs by name. ---
  RegisterBuiltinApps();
  std::printf("\nregistered query classes:");
  for (const std::string& name : AppRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n\nplay panel:\n");
  const struct {
    const char* app;
    std::vector<std::string> args;
  } session[] = {
      {"sssp", {"source=0"}},
      {"bfs", {"source=1"}},
      {"cc", {}},
      {"pagerank", {"iters=15"}},
  };
  for (const auto& q : session) {
    auto app = AppRegistry::Global().Get(q.app);
    if (!app.ok()) continue;
    EngineMetrics metrics;
    auto answer =
        app->run(*fg, ParseQueryArgs(q.args), EngineOptions{}, &metrics);
    std::printf("  %-9s -> %s  [%u supersteps]\n", q.app,
                answer.ok() ? answer->c_str()
                            : answer.status().ToString().c_str(),
                metrics.supersteps);
  }
  return 0;
}
