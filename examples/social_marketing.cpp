// Social media marketing (the paper's Fig. 4 / Example 2): evaluate the
// GPAR  "Q(x, item) => buy(x, item)"  — if at least 80% of the people x
// follows recommend the item and none of them rates it badly, recommend the
// item to x. Candidates are ranked by confidence, and the same rule is also
// cross-checked through the general SubIso machinery on a small pattern.
//
// Flags: --persons --items --support

#include <cstdio>

#include "apps/gpar.h"
#include "apps/subiso.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "util/flags.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace grape;
  const std::vector<std::string> kFlags = {"persons", "items", "support"};
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, kFlags); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  SocialGraphOptions opts;
  opts.num_persons = static_cast<VertexId>(flags.GetInt("persons", 20000));
  opts.num_items = static_cast<VertexId>(flags.GetInt("items", 12));
  opts.seed = 99;
  auto graph = GenerateSocialGraph(opts);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("social graph: %u persons, %u items, %zu edges\n",
              opts.num_persons, opts.num_items, graph->num_edges());

  auto partitioner = MakePartitioner("hash");
  auto assignment = (*partitioner)->Partition(*graph, 8);
  auto fg = FragmentBuilder::Build(*graph, *assignment, 8);

  GparQuery rule;
  rule.item = opts.num_persons;  // the flagship phone (item 0)
  rule.support = flags.GetDouble("support", 0.8);
  rule.min_followees = 3;

  GrapeEngine<GparApp> engine(*fg, GparApp{});
  auto result = engine.Run(rule);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nGPAR: >= %.0f%% of followees recommend item %u, none rates "
              "it badly\n",
              rule.support * 100.0, rule.item);
  std::printf("found %zu potential customers in %.3fs over 8 workers "
              "(%s shipped)\n",
              result->candidates.size(), engine.metrics().total_seconds,
              HumanBytes(engine.metrics().bytes).c_str());
  std::printf("\n%12s %12s %12s %14s\n", "Person", "Confidence", "Followees",
              "Recommending");
  size_t shown = 0;
  for (const GparCandidate& c : result->candidates) {
    std::printf("%12u %12.3f %12u %14u\n", c.person, c.confidence,
                c.followees, c.recommending);
    if (++shown == 10) break;
  }

  // Cross-check with the general pattern matcher: person -> person -> item
  // with "follows" then "recommends" edges (one branch of the rule).
  auto pattern = Pattern::Create(
      {kPersonLabel, kPersonLabel, kItemLabel},
      {{0, 1, kFollowsLabel}, {1, 2, kRecommendsLabel}});
  if (pattern.ok()) {
    GrapeEngine<SubIsoApp> subiso(*fg, SubIsoApp{});
    auto matches = subiso.Run(SubIsoQuery{*pattern, /*max_results=*/50000});
    if (matches.ok()) {
      std::printf("\nSubIso cross-check: %zu follower->followee->item "
                  "paths matched (capped), %u supersteps\n",
                  matches->embeddings.size(), subiso.metrics().supersteps);
    }
  }
  return 0;
}
