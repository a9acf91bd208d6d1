#include "apps/pagerank.h"

#include <algorithm>
#include <cmath>

namespace grape {

void PageRankApp::PEval(const QueryType& query, const Fragment& frag,
                        ParamStore<double>& params) {
  (void)query;  // damping first applies in IncEval
  const double n = static_cast<double>(frag.total_num_vertices());
  rank_.assign(frag.num_inner(), 1.0 / n);
  delta_ = 1.0;  // force at least one iteration

  // Inner rows carry the full global out-adjacency, so OutDegree(lid) is the
  // true global out-degree for inner vertices.
  for (LocalId lid = 0; lid < frag.num_inner(); ++lid) {
    size_t deg = frag.OutDegree(lid);
    double c = deg == 0 ? 0.0 : rank_[lid] / static_cast<double>(deg);
    params.Set(lid, c);  // border contributions flush to mirrors
  }
}

void PageRankApp::IncEval(const QueryType& query, const Fragment& frag,
                          ParamStore<double>& params,
                          const std::vector<LocalId>& updated) {
  (void)updated;  // every mirror refresh is already applied to the store
  const double n = static_cast<double>(frag.total_num_vertices());
  const double base = (1.0 - query.damping) / n;

  delta_ = 0.0;
  std::vector<double> next(frag.num_inner());
  for (LocalId lid = 0; lid < frag.num_inner(); ++lid) {
    double sum = 0.0;
    for (const FragNeighbor& nb : frag.InNeighbors(lid)) {
      sum += params.Get(nb.local);
    }
    next[lid] = base + query.damping * sum;
    delta_ += std::abs(next[lid] - rank_[lid]);
  }
  rank_ = std::move(next);
  for (LocalId lid = 0; lid < frag.num_inner(); ++lid) {
    size_t deg = frag.OutDegree(lid);
    double c = deg == 0 ? 0.0 : rank_[lid] / static_cast<double>(deg);
    params.SetIfChanged(lid, c);
  }
}

PageRankApp::PartialType PageRankApp::GetPartial(
    const QueryType& query, const Fragment& frag,
    const ParamStore<double>& params) const {
  (void)query;
  (void)params;
  PartialType partial;
  partial.reserve(frag.num_inner());
  for (LocalId lid = 0; lid < frag.num_inner(); ++lid) {
    partial.emplace_back(frag.Gid(lid), rank_[lid]);
  }
  return partial;
}

PageRankApp::OutputType PageRankApp::Assemble(
    const QueryType& query, std::vector<PartialType>&& partials) {
  (void)query;
  VertexId max_gid = 0;
  bool any = false;
  for (const PartialType& p : partials) {
    for (const auto& [gid, r] : p) {
      max_gid = std::max(max_gid, gid);
      any = true;
    }
  }
  PageRankOutput out;
  out.rank.assign(any ? max_gid + 1 : 0, 0.0);
  for (PartialType& p : partials) {
    for (const auto& [gid, r] : p) out.rank[gid] = r;
  }
  return out;
}

}  // namespace grape
