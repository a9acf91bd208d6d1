#include "apps/sssp.h"

#include <algorithm>
#include <queue>

namespace grape {

namespace {

using HeapEntry = std::pair<double, LocalId>;
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

/// Dijkstra over the local fragment with lazy deletion. Relaxes the local
/// edges of every popped vertex (outer vertices relax their edges into the
/// inner set, shaving off one superstep of latency per crossing).
void LocalDijkstra(const Fragment& frag, ParamStore<double>& params,
                   MinHeap& heap) {
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d > params.Get(v)) continue;
    for (const FragNeighbor& nb : frag.OutNeighbors(v)) {
      double nd = d + nb.weight;
      if (nd < params.Get(nb.local)) {
        params.Set(nb.local, nd);
        heap.push({nd, nb.local});
      }
    }
  }
}

}  // namespace

void SsspApp::PEval(const QueryType& query, const Fragment& frag,
                    ParamStore<double>& params) {
  MinHeap heap;
  LocalId lid = frag.Lid(query.source);
  // Only the owner seeds; a mirror of the source would relay a stale
  // infinite value otherwise, and its true distance arrives via messages.
  if (lid != kInvalidLocal && frag.IsInner(lid)) {
    params.Set(lid, 0.0);
    heap.push({0.0, lid});
  }
  LocalDijkstra(frag, params, heap);
}

void SsspApp::IncEval(const QueryType& query, const Fragment& frag,
                      ParamStore<double>& params,
                      const std::vector<LocalId>& updated) {
  (void)query;
  MinHeap heap;
  for (LocalId lid : updated) heap.push({params.Get(lid), lid});
  LocalDijkstra(frag, params, heap);
}

SsspApp::PartialType SsspApp::GetPartial(
    const QueryType& query, const Fragment& frag,
    const ParamStore<double>& params) const {
  (void)query;
  PartialType partial;
  partial.reserve(frag.num_inner());
  for (LocalId lid = 0; lid < frag.num_inner(); ++lid) {
    partial.emplace_back(frag.Gid(lid), params.Get(lid));
  }
  return partial;
}

SsspApp::OutputType SsspApp::Assemble(const QueryType& query,
                                      std::vector<PartialType>&& partials) {
  (void)query;
  VertexId max_gid = 0;
  bool any = false;
  for (const PartialType& p : partials) {
    for (const auto& [gid, dist] : p) {
      max_gid = std::max(max_gid, gid);
      any = true;
    }
  }
  SsspOutput out;
  out.dist.assign(any ? max_gid + 1 : 0, kInfDistance);
  for (PartialType& p : partials) {
    for (const auto& [gid, dist] : p) out.dist[gid] = dist;
  }
  return out;
}

}  // namespace grape
