#ifndef GRAPE_APPS_CF_H_
#define GRAPE_APPS_CF_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/pie.h"

namespace grape {

struct CfQuery {
  /// Latent factor dimensionality.
  uint32_t rank = 8;
  double learning_rate = 0.01;
  double regularization = 0.05;
  uint32_t epochs = 10;
  uint64_t seed = 1234;
};

struct CfOutput {
  /// factors[gid] = latent vector (empty for ids absent from the graph).
  std::vector<std::vector<float>> factors;
  /// Root-mean-square error over all ratings after training.
  double train_rmse = 0.0;
};

/// PIE program for collaborative filtering (CF): matrix factorization over a
/// bipartite user-item rating graph by distributed SGD.
///   PEval  : deterministic factor initialization (hash of the vertex id, so
///            owner and mirror copies agree without messages) plus one local
///            SGD epoch over the fragment's inner-endpoint ratings.
///   IncEval: mirrors carry the partner factors refreshed each round
///            (kToMirrors / overwrite); each round runs the next epoch.
///   Termination: after `epochs` rounds the parameters stop changing and the
///            fixed point is reached (no ShouldTerminate hook needed).
/// This is the classic "stale mirror" SGD of distributed ML frameworks; each
/// rating edge appears in both endpoint fragments, and each side updates
/// only its inner endpoint.
class CfApp {
 public:
  using QueryType = CfQuery;
  using ValueType = std::vector<float>;
  using AggregatorType = OverwriteAggregator<std::vector<float>>;
  struct CfPartial {
    std::vector<std::pair<VertexId, std::vector<float>>> factors;
    double squared_error = 0.0;
    size_t num_ratings = 0;
  };
  using PartialType = CfPartial;
  using OutputType = CfOutput;
  static constexpr MessageScope kScope = MessageScope::kToMirrors;
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

  double GlobalValue() const { return last_epoch_sse_; }

 private:
  void RunEpoch(const QueryType& query, const Fragment& frag,
                ParamStore<ValueType>& params);

  uint32_t epoch_ = 0;
  double last_epoch_sse_ = 0.0;
};

}  // namespace grape

#endif  // GRAPE_APPS_CF_H_
