#ifndef GRAPE_APPS_MSF_H_
#define GRAPE_APPS_MSF_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/engine.h"
#include "core/pie.h"
#include "graph/graph.h"
#include "util/serializer.h"

namespace grape {

/// A candidate minimum-weight outgoing edge (MWOE) of a component, with a
/// deterministic lexicographic order (weight, endpoints) so that Borůvka
/// with ties still produces a forest. Demonstrates the SelfCodable
/// extension point of the codec.
struct MwoeCandidate {
  double weight = kInfDistance;
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;

  bool valid() const { return u != kInvalidVertex; }

  friend bool operator==(const MwoeCandidate& a, const MwoeCandidate& b) {
    return a.weight == b.weight && a.u == b.u && a.v == b.v;
  }
  friend bool operator<(const MwoeCandidate& a, const MwoeCandidate& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  }

  void EncodeTo(Encoder& enc) const {
    enc.WriteDouble(weight);
    enc.WriteU32(u);
    enc.WriteU32(v);
  }
  static Status DecodeFrom(Decoder& dec, MwoeCandidate* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadDouble(&out->weight));
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->u));
    return dec.ReadU32(&out->v);
  }
};

/// One Borůvka phase as a PIE program: every component finds its
/// minimum-weight outgoing edge by a min-reduction keyed on the component's
/// root vertex (roots are vertex ids, so the engine's owner routing IS the
/// reduction tree: candidates are posted to the root's owner and merged by
/// the aggregate function). Two supersteps per phase.
class MwoePhaseApp {
 public:
  struct Query {
    /// labels[gid] = component root of gid (from the driver's union-find).
    std::shared_ptr<const std::vector<VertexId>> labels;
  };

  using QueryType = Query;
  using ValueType = MwoeCandidate;
  using AggregatorType = MinAggregator<MwoeCandidate>;
  using PartialType = std::vector<MwoeCandidate>;
  using OutputType = std::vector<MwoeCandidate>;
  static constexpr MessageScope kScope = MessageScope::kToOwner;
  static constexpr bool kResetAfterFlush = false;

  ValueType InitValue() const { return MwoeCandidate{}; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<MwoeCandidate>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<MwoeCandidate>& params,
               const std::vector<LocalId>& updated);
  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<MwoeCandidate>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return 0.0; }
};

struct MsfOutput {
  /// Chosen forest edges (undirected, u < v).
  std::vector<Edge> edges;
  double total_weight = 0.0;
  /// Number of connected components of the input (trees in the forest).
  size_t num_components = 0;
  /// Borůvka phases executed.
  uint32_t phases = 0;
};

/// Minimum spanning forest by distributed Borůvka: repeatedly runs the
/// MWOE phase program to its fixed point, merges components along the
/// chosen edges (driver-side union-find) and stops when no component has an
/// outgoing edge — a *composition* of PIE fixed points, the pattern the
/// demo uses for multi-stage analytics. Works on the undirected view;
/// parallel edges are fine (the lexicographic order picks one).
class MsfSolver {
 public:
  static Result<MsfOutput> Solve(const FragmentedGraph& fg,
                                 EngineOptions options = {});
};

/// Sequential reference: Kruskal with union-find over the undirected view.
MsfOutput SeqKruskal(const Graph& graph);

}  // namespace grape

#endif  // GRAPE_APPS_MSF_H_
