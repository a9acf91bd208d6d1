#ifndef GRAPE_APPS_GPAR_H_
#define GRAPE_APPS_GPAR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/pie.h"
#include "graph/generators.h"

namespace grape {

/// Graph pattern association rule Q(x, y) => p(x, y) for the social-media-
/// marketing demo (Example 2 / Fig. 4): "if at least `support` of the people
/// x follows recommend `item`, and none of them rates it badly, then x is
/// likely to buy `item`".
struct GparQuery {
  /// Global vertex id of the item (y).
  VertexId item = 0;
  /// Minimum fraction of followees recommending the item.
  double support = 0.8;
  /// Minimum number of followees for the rule to be meaningful.
  uint32_t min_followees = 3;
};

struct GparCandidate {
  VertexId person;
  /// recommending followees / total followees.
  double confidence;
  uint32_t followees;
  uint32_t recommending;
};

struct GparOutput {
  /// Potential customers ranked by confidence (descending), then id.
  std::vector<GparCandidate> candidates;
};

/// PIE program evaluating the demo GPAR.
///   Update parameter of a person vertex: a bitfield — bit 0 "recommends the
///   item", bit 1 "rates it badly" — broadcast from owners to mirrors so
///   every worker can evaluate the rule over its inner persons' followees.
///   PEval  : scan inner persons' item edges to compute the flags, then
///            evaluate the rule with the (possibly default) mirror flags.
///   IncEval: re-evaluate exactly the inner persons following a mirror
///            whose flags changed — a bounded incremental step.
/// Two supersteps total; matching the paper's claim that GPAR evaluation
/// parallelizes with provable speedup as workers are added.
class GparApp {
 public:
  using QueryType = GparQuery;
  using ValueType = uint8_t;
  using AggregatorType = OverwriteAggregator<uint8_t>;
  using PartialType = std::vector<GparCandidate>;
  using OutputType = GparOutput;
  static constexpr MessageScope kScope = MessageScope::kToMirrors;
  static constexpr bool kResetAfterFlush = false;

  static constexpr uint8_t kRecommendsBit = 1;
  static constexpr uint8_t kRatesBadBit = 2;

  ValueType InitValue() const { return 0; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<uint8_t>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<uint8_t>& params,
               const std::vector<LocalId>& updated);
  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<uint8_t>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return 0.0; }

 private:
  /// Re-evaluates the rule for inner person `lid`; records or erases the
  /// candidate entry.
  void Evaluate(const QueryType& query, const Fragment& frag,
                const ParamStore<uint8_t>& params, LocalId lid);

  /// Candidate decision per inner lid (confidence < 0 = not a candidate).
  std::vector<GparCandidate> decisions_;
  std::vector<uint8_t> is_candidate_;
};

}  // namespace grape

#endif  // GRAPE_APPS_GPAR_H_
