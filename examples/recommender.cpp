// Collaborative filtering (query class "CF"): train a low-rank matrix
// factorization over a user-item rating graph with distributed SGD, then
// produce top-N item recommendations for a few users — the machine-learning
// workload of the paper's query-class library.
//
// Flags: --users --items --rank --epochs

#include <algorithm>
#include <cstdio>

#include "apps/cf.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace grape;
  const std::vector<std::string> kFlags = {"users", "items", "rank", "epochs"};
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, kFlags); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  BipartiteOptions gopts;
  gopts.num_users = static_cast<VertexId>(flags.GetInt("users", 2000));
  gopts.num_items = static_cast<VertexId>(flags.GetInt("items", 200));
  gopts.ratings_per_user = 20;
  gopts.seed = 777;
  auto graph = GenerateBipartiteRatings(gopts);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  CfQuery query;
  query.rank = static_cast<uint32_t>(flags.GetInt("rank", 8));
  query.epochs = static_cast<uint32_t>(flags.GetInt("epochs", 12));
  query.learning_rate = 0.02;

  auto partitioner = MakePartitioner("hash");
  auto assignment = (*partitioner)->Partition(*graph, 8);
  auto fg = FragmentBuilder::Build(*graph, *assignment, 8);

  GrapeEngine<CfApp> engine(*fg, CfApp{});
  auto model = engine.Run(query);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("trained rank-%u factorization over %u users x %u items "
              "(%u ratings/user)\n",
              query.rank, gopts.num_users, gopts.num_items,
              gopts.ratings_per_user);
  std::printf("train RMSE %.4f after %u epochs (%u supersteps)\n",
              model->train_rmse, query.epochs, engine.metrics().supersteps);

  auto predict = [&](VertexId user, VertexId item) {
    const auto& pu = model->factors[user];
    const auto& qi = model->factors[gopts.num_users + item];
    float dot = 0;
    for (uint32_t t = 0; t < query.rank; ++t) dot += pu[t] * qi[t];
    return dot;
  };
  auto rated = [&](VertexId user, VertexId item) {
    for (const Neighbor& nb : graph->OutNeighbors(user)) {
      if (nb.vertex == gopts.num_users + item) return true;
    }
    return false;
  };

  std::printf("\ntop-5 unseen-item recommendations:\n");
  for (VertexId user : {0u, 1u, 2u}) {
    std::vector<std::pair<float, VertexId>> scored;
    for (VertexId item = 0; item < gopts.num_items; ++item) {
      if (!rated(user, item)) scored.push_back({predict(user, item), item});
    }
    std::partial_sort(scored.begin(),
                      scored.begin() + std::min<size_t>(5, scored.size()),
                      scored.end(), std::greater<>());
    std::printf("  user %u:", user);
    for (size_t i = 0; i < std::min<size_t>(5, scored.size()); ++i) {
      std::printf(" item%u(%.2f)", scored[i].second, scored[i].first);
    }
    std::printf("\n");
  }
  return 0;
}
