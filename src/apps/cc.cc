#include "apps/cc.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

namespace grape {

namespace {

/// Min-label propagation over the undirected view of the fragment from the
/// queued seeds until the local fixed point. A vertex already in the
/// worklist is not queued again: it reads its label when popped, so a
/// second entry would only repeat that scan. The fixed point and the set of
/// lowered (changed) vertices are the same either way. `queued` holds one
/// flag per local vertex, all clear on entry and on return.
void Propagate(const Fragment& frag, ParamStore<VertexId>& params,
               std::deque<LocalId>& worklist, std::vector<uint8_t>& queued) {
  queued.resize(frag.num_local(), 0);
  for (LocalId v : worklist) queued[v] = 1;
  while (!worklist.empty()) {
    LocalId v = worklist.front();
    worklist.pop_front();
    queued[v] = 0;
    VertexId label = params.Get(v);
    auto relax = [&](const FragNeighbor& nb) {
      if (label < params.Get(nb.local)) {
        params.Set(nb.local, label);
        if (!queued[nb.local]) {
          queued[nb.local] = 1;
          worklist.push_back(nb.local);
        }
      }
    };
    for (const FragNeighbor& nb : frag.OutNeighbors(v)) relax(nb);
    if (frag.is_directed()) {
      for (const FragNeighbor& nb : frag.InNeighbors(v)) relax(nb);
    }
  }
}

}  // namespace

void CcApp::PEval(const QueryType& query, const Fragment& frag,
                  ParamStore<VertexId>& params) {
  (void)query;
  // Declare the parameters: every local vertex starts with its own id.
  // Initialization is not a "change", so it does not generate messages.
  for (LocalId lid = 0; lid < frag.num_local(); ++lid) {
    params.UntrackedRef(lid) = frag.Gid(lid);
  }
  std::deque<LocalId> worklist;
  for (LocalId lid = 0; lid < frag.num_local(); ++lid) {
    worklist.push_back(lid);
  }
  Propagate(frag, params, worklist, queued_);
}

void CcApp::IncEval(const QueryType& query, const Fragment& frag,
                    ParamStore<VertexId>& params,
                    const std::vector<LocalId>& updated) {
  (void)query;
  std::deque<LocalId> worklist(updated.begin(), updated.end());
  Propagate(frag, params, worklist, queued_);
}

CcApp::PartialType CcApp::GetPartial(const QueryType& query,
                                     const Fragment& frag,
                                     const ParamStore<VertexId>& params) const {
  (void)query;
  PartialType partial;
  partial.reserve(frag.num_inner());
  for (LocalId lid = 0; lid < frag.num_inner(); ++lid) {
    partial.emplace_back(frag.Gid(lid), params.Get(lid));
  }
  return partial;
}

CcApp::OutputType CcApp::Assemble(const QueryType& query,
                                  std::vector<PartialType>&& partials) {
  (void)query;
  VertexId max_gid = 0;
  bool any = false;
  for (const PartialType& p : partials) {
    for (const auto& [gid, label] : p) {
      max_gid = std::max(max_gid, gid);
      any = true;
    }
  }
  CcOutput out;
  out.label.assign(any ? max_gid + 1 : 0, kInvalidVertex);
  for (PartialType& p : partials) {
    for (const auto& [gid, label] : p) out.label[gid] = label;
  }
  return out;
}

}  // namespace grape
