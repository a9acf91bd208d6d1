#ifndef GRAPE_APPS_KCORE_H_
#define GRAPE_APPS_KCORE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/pie.h"
#include "graph/graph.h"

namespace grape {

struct KCoreQuery {};

struct KCoreOutput {
  /// coreness[gid] = largest k such that gid belongs to the k-core.
  std::vector<uint32_t> coreness;
};

/// PIE program for k-core decomposition — an extension query class built on
/// the distributed coreness algorithm of Montresor et al. (one-hop h-index
/// refinement): every vertex maintains an upper bound on its coreness,
/// initialized to its degree, and repeatedly lowers it to the h-index of
/// its neighbours' bounds. Bounds decrease monotonically to the exact
/// coreness, so the computation is a textbook GRAPE fixed point:
///   PEval  : local h-index iteration to the fragment-local fixed point.
///   IncEval: re-refine only neighbours of mirrors whose bound dropped.
///   Update parameters: the bounds of border vertices, owner-to-mirror,
///   min-aggregated (a bound can only tighten).
class KCoreApp {
 public:
  using QueryType = KCoreQuery;
  using ValueType = uint32_t;
  using AggregatorType = MinAggregator<uint32_t>;
  using PartialType = std::vector<std::pair<VertexId, uint32_t>>;
  using OutputType = KCoreOutput;
  static constexpr MessageScope kScope = MessageScope::kToMirrors;
  static constexpr bool kResetAfterFlush = false;

  ValueType InitValue() const { return UINT32_MAX; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<uint32_t>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<uint32_t>& params,
               const std::vector<LocalId>& updated);
  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<uint32_t>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return 0.0; }
};

/// Sequential reference: exact coreness by the classic peeling algorithm
/// (repeatedly remove a minimum-degree vertex). Directed graphs use the
/// undirected view; parallel edges count toward the degree.
std::vector<uint32_t> SeqKCore(const Graph& graph);

}  // namespace grape

#endif  // GRAPE_APPS_KCORE_H_
