#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the three workloads: run options, the metric tables
// BENCHMARK.json names, the result a workload fills in, and the process
// helpers (world spawn, peak RSS).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "graph/graph.h"
#include "graph/mutation.h"
#include "rt/transport.h"
#include "trace.h"
#include "util/result.h"
#include "util/status.h"

namespace perfbench {

using grape::Status;

/// Every workload runs 3 fragments: a coordinator plus 3 endpoint
/// processes over tcp loopback, one process per core of a 4-core host.
inline constexpr uint32_t kFragments = 3;
inline constexpr const char* kTransport = "tcp";
/// Side of the road grid of road-sssp and serve-mixed (90,000 vertices).
inline constexpr uint32_t kGridSide = 300;
/// Edges per write: every write is an insert-only batch of this many.
inline constexpr uint32_t kWriteOps = 8;
/// Cold set-ups per run; setup_s is their median (one cold set-up alone
/// varies by about a quarter).
inline constexpr uint32_t kSetups = 5;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Chrome trace-event JSON written by the traced run ("" = none).
  std::string trace_path;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics (reported with tracing off) and the per-layer
/// metrics (reported by the traced run), in BENCHMARK.json order. A
/// workload that bypasses a layer reports 0 for its metrics.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// What one workload run measured.
struct RunResult {
  OpLedger ledger;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Drift diagnostics printed beside the result (machine, budget and
  /// yardstick), so a comparison can tell a moved host from moved code.
  std::map<std::string, double> diagnostics;
  std::map<std::string, std::string> notes;
};

Status RunRoadSssp(const RunOptions& options, Tracer* tracer,
                   RunResult* result);
Status RunPowerlawPageRank(const RunOptions& options, Tracer* tracer,
                           RunResult* result);
Status RunServeMixed(const RunOptions& options, Tracer* tracer,
                     RunResult* result);

// ----------------------------------------------------------- helpers

/// Registers the worker apps and spawns a tcp world of kFragments + 1
/// ranks. Called before the graph exists, so the forked endpoints inherit
/// no graph pages and their RSS counts fragments only.
grape::Result<std::unique_ptr<grape::Transport>> SpawnWorld();

/// Peak RSS of this process, in MB.
double PeakRssMb();
/// Largest peak RSS among the world's endpoint processes, in MB.
double EndpointPeakRssMb(const grape::Transport& world);

/// Seconds since `start` on the steady clock.
double SecondsSince(std::chrono::steady_clock::time_point start);

/// CPU time of the whole guest from /proc/stat, in clock ticks: total and
/// stolen by the hypervisor. Differences over a run give the share of CPU
/// the host took away, a diagnostic of a noisy neighbour.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
/// Stolen share of CPU time between two readings (0 when unknown).
double StealFraction(const CpuTicks& before, const CpuTicks& after);
/// Length of one /proc/stat tick, in seconds.
double TickSeconds();

/// CPU time of the calling thread. The kernel's task clock leaves out the
/// time the host stole, so for pure compute, wall minus this is the
/// stolen time the thread itself lost.
double ThreadCpuSeconds();

/// Wall time, this thread's CPU time and the guest's stolen ticks since
/// construction.
class StealMeter {
 public:
  StealMeter()
      : start_(std::chrono::steady_clock::now()),
        cpu0_(ThreadCpuSeconds()),
        steal0_(ReadCpuTicks().steal) {}
  double WallSeconds() const { return SecondsSince(start_); }
  /// Wall time this thread spent off its CPU: stolen, queued or blocked.
  double OffCpuSeconds() const {
    return std::max(0.0, WallSeconds() - (ThreadCpuSeconds() - cpu0_));
  }
  double Stolen() const {
    const uint64_t now = ReadCpuTicks().steal;  // 0 if unreadable
    return now > steal0_ ? static_cast<double>(now - steal0_) : 0.0;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  double cpu0_;
  uint64_t steal0_;
};

/// Cold set-up times with the host's steal taken out.
///
/// Most of a set-up is single-threaded compute in rank 0 (generate,
/// partition, build), and one set-up took 0.69 s on a quiet host but
/// 1.04 s at 14 % steal. Its exposure to steal is measured on those
/// compute phases themselves: the time the thread lost off its CPU per
/// tick the guest had stolen meanwhile, bounded by one tick. Each set-up's
/// wall time then loses its own stolen ticks times that exposure.
class SetupSteal {
 public:
  /// A single-threaded compute phase of some set-up.
  void AddComputePhase(const StealMeter& phase) {
    lost_s_ += phase.OffCpuSeconds();
    phase_stolen_ += phase.Stolen();
  }
  /// A whole set-up.
  void AddSetup(const StealMeter& setup) {
    setups_.push_back({setup.WallSeconds(), setup.Stolen()});
  }
  /// Seconds a set-up loses per stolen tick.
  double Exposure() const;
  /// The set-ups' wall times ("raw") and their corrected times.
  std::vector<double> RawSeconds() const;
  std::vector<double> CorrectedSeconds() const;

 private:
  double lost_s_ = 0;
  double phase_stolen_ = 0;
  std::vector<std::pair<double, double>> setups_;  // wall seconds, ticks
};

/// An insert-only mutation batch of `ops` edges that neither the graph nor
/// an earlier batch has (`inserted` remembers every edge handed out), so no
/// upsert ever raises a weight. Weights are integers in [1, 10], which keeps
/// every path length exact. `pick_target(u, rng)` chooses the other
/// endpoint for u; it returns u to skip.
template <typename PickTarget>
grape::MutationBatch MakeInsertBatch(
    const grape::Graph& graph, std::mt19937_64& rng, uint32_t ops,
    PickTarget&& pick_target,
    std::set<std::pair<grape::VertexId, grape::VertexId>>* inserted) {
  grape::MutationBatch batch;
  const grape::VertexId n = graph.num_vertices();
  while (batch.size() < ops) {
    const auto u = static_cast<grape::VertexId>(rng() % n);
    const grape::VertexId v = pick_target(u, rng);
    if (v == u || v >= n || inserted->count({u, v}) > 0) continue;
    bool present = false;
    for (const grape::Neighbor& nb : graph.OutNeighbors(u)) {
      present = present || nb.vertex == v;
    }
    if (present) continue;
    inserted->insert({u, v});
    batch.InsertEdge(u, v, static_cast<double>(1 + rng() % 10));
  }
  return batch;
}

/// A vertex at most two rows/columns away from u on a rows x cols grid
/// (never a lattice neighbour of u, so the edge is new): local road
/// additions, whose effect on shortest paths stays local.
grape::VertexId NearbyGridVertex(grape::VertexId u, uint32_t rows,
                                 uint32_t cols, std::mt19937_64& rng);

/// Fills the per-layer metrics shared by every workload: the yardstick
/// (oracle times), the self time of each traced span, and the ledger.
void ReportCommonLayers(const std::vector<double>& oracle_s,
                        const Tracer& tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
