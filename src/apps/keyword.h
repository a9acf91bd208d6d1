#ifndef GRAPE_APPS_KEYWORD_H_
#define GRAPE_APPS_KEYWORD_H_

#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/pie.h"

namespace grape {

struct KeywordQuery {
  /// The keywords (vertex labels) that must all be nearby.
  std::vector<Label> keywords;
  /// A vertex answers the query when, for every keyword, some vertex
  /// carrying it reaches the vertex within this distance.
  double radius = 2.0;
};

struct KeywordMatch {
  VertexId vertex;
  /// dist[i] = distance from the nearest vertex labelled keywords[i].
  std::vector<double> dist;
  /// max over dist — the ranking key (smaller = better).
  double score;
};

struct KeywordOutput {
  /// Matches sorted by score then vertex id.
  std::vector<KeywordMatch> matches;
};

/// PIE program for keyword search in graphs (Keyword): a vertex v matches
/// {k_1..k_m} within radius d when every keyword has a witness vertex at
/// distance <= d that reaches v.
///   PEval  : one sequential multi-source Dijkstra per keyword over the
///            fragment (sources: local vertices carrying the keyword).
///   IncEval: Dijkstra continued from message-improved vertices.
///   Update parameters: the m-vector of keyword distances per border/outer
///            vertex under element-wise min — monotonic, so the Assurance
///            Theorem applies exactly as for SSSP.
class KeywordApp {
 public:
  using QueryType = KeywordQuery;
  using ValueType = std::vector<double>;
  using AggregatorType = ElementwiseMinAggregator;
  using PartialType = std::vector<KeywordMatch>;
  using OutputType = KeywordOutput;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = false;

  ValueType InitValue() const { return {}; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<ValueType>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<ValueType>& params,
               const std::vector<LocalId>& updated);
  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<ValueType>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return 0.0; }
};

}  // namespace grape

#endif  // GRAPE_APPS_KEYWORD_H_
