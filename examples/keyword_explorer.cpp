// Keyword search over a labelled knowledge-graph-like network (query class
// "Keyword" from the paper's library): find entities within a bounded
// distance of *all* requested keywords, ranked by their worst-case keyword
// distance — and contrast the result with per-keyword reachability.
//
// Flags: --scale --radius --k0 --k1

#include <cstdio>

#include "apps/keyword.h"
#include "apps/seq/seq_algorithms.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace grape;
  const std::vector<std::string> kFlags = {"scale", "radius", "k0", "k1"};
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, kFlags); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  LabeledGraphOptions opts;
  opts.scale = static_cast<uint32_t>(flags.GetInt("scale", 12));
  opts.edge_factor = 8;
  opts.num_vertex_labels = 12;
  opts.seed = 321;
  auto graph = GenerateLabeledGraph(opts);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  KeywordQuery query;
  query.keywords = {static_cast<Label>(flags.GetInt("k0", 2)),
                    static_cast<Label>(flags.GetInt("k1", 7))};
  query.radius = flags.GetDouble("radius", 5.0);

  auto partitioner = MakePartitioner("metis");
  auto assignment = (*partitioner)->Partition(*graph, 8);
  auto fg = FragmentBuilder::Build(*graph, *assignment, 8);

  GrapeEngine<KeywordApp> engine(*fg, KeywordApp{});
  auto result = engine.Run(query);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  size_t label_counts[2] = {0, 0};
  for (VertexId v = 0; v < graph->num_vertices(); ++v) {
    for (int k = 0; k < 2; ++k) {
      if (graph->vertex_label(v) == query.keywords[k]) ++label_counts[k];
    }
  }
  std::printf("graph: %u vertices; keyword %u on %zu vertices, keyword %u "
              "on %zu vertices\n",
              graph->num_vertices(), query.keywords[0], label_counts[0],
              query.keywords[1], label_counts[1]);
  std::printf("query: vertices reachable from BOTH keywords within %.1f\n",
              query.radius);
  std::printf("answers: %zu vertices (%u supersteps)\n",
              result->matches.size(), engine.metrics().supersteps);

  std::printf("\ntop answers (score = worst keyword distance):\n");
  std::printf("%10s %10s", "vertex", "score");
  for (Label k : query.keywords) std::printf("   d(kw %u)", k);
  std::printf("\n");
  size_t shown = 0;
  for (const KeywordMatch& m : result->matches) {
    std::printf("%10u %10.2f", m.vertex, m.score);
    for (double d : m.dist) std::printf(" %9.2f", d);
    std::printf("\n");
    if (++shown == 10) break;
  }
  return 0;
}
