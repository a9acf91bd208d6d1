#ifndef GRAPE_APPS_PAGERANK_H_
#define GRAPE_APPS_PAGERANK_H_

#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/codec.h"
#include "core/pie.h"

namespace grape {

struct PageRankQuery {
  double damping = 0.85;
  uint32_t max_iterations = 50;
  /// Stop once the global L1 delta of the rank vector drops below epsilon.
  double epsilon = 1e-9;

  // Wire codec: lets the query ship to remote worker hosts (whose
  // IncEval reads damping).
  void EncodeTo(Encoder& enc) const {
    enc.WriteDouble(damping);
    enc.WriteU32(max_iterations);
    enc.WriteDouble(epsilon);
  }
  static Status DecodeFrom(Decoder& dec, PageRankQuery* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadDouble(&out->damping));
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->max_iterations));
    return dec.ReadDouble(&out->epsilon);
  }
};

struct PageRankOutput {
  std::vector<double> rank;
};

/// PIE program for PageRank. Unlike SSSP/CC this computation is *not*
/// monotonic, so it terminates through the ShouldTerminate hook (coordinator
/// checks the summed L1 delta) rather than the fixed-point-of-parameters
/// rule — demonstrating that GRAPE also hosts iterative numeric algorithms
/// (the Simulation Theorem direction).
///
///   Update parameter of v: its out-contribution c(v) = rank(v)/outdeg(v).
///   PEval broadcasts initial contributions of border vertices to mirrors;
///   each IncEval round pulls in-neighbour contributions (mirrors included)
///   and refreshes changed border contributions. Dangling (sink) mass is
///   dropped, matching SeqPageRank exactly.
class PageRankApp {
 public:
  using QueryType = PageRankQuery;
  using ValueType = double;
  using AggregatorType = OverwriteAggregator<double>;
  using PartialType = std::vector<std::pair<VertexId, double>>;
  using OutputType = PageRankOutput;
  static constexpr MessageScope kScope = MessageScope::kToMirrors;
  static constexpr bool kResetAfterFlush = false;

  ValueType InitValue() const { return 0.0; }

  void PEval(const QueryType& query, const Fragment& frag,
             ParamStore<double>& params);
  void IncEval(const QueryType& query, const Fragment& frag,
               ParamStore<double>& params,
               const std::vector<LocalId>& updated);

  PartialType GetPartial(const QueryType& query, const Fragment& frag,
                         const ParamStore<double>& params) const;
  static OutputType Assemble(const QueryType& query,
                             std::vector<PartialType>&& partials);

  double GlobalValue() const { return delta_; }
  static bool ShouldTerminate(const QueryType& query, uint32_t round,
                              double global) {
    if (round < 2) return false;  // at least one rank update
    return global < query.epsilon || round >= query.max_iterations + 1;
  }

  // Checkpoint hooks (CheckpointableApp): PageRank keeps the rank vector
  // and residual outside the ParamStore, so fault-tolerant recovery must
  // capture them or a resumed run would restart the power iteration.
  void EncodeState(Encoder& enc) const {
    enc.WritePodVector(rank_);
    enc.WriteDouble(delta_);
  }
  Status DecodeState(Decoder& dec) {
    GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&rank_));
    return dec.ReadDouble(&delta_);
  }

 private:
  std::vector<double> rank_;  // by inner lid
  double delta_ = 0.0;
};

}  // namespace grape

#endif  // GRAPE_APPS_PAGERANK_H_
