#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "apps/register_apps.h"
#include "stats.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"endpoint_rss_mb", "MB"},
      {"lat_p50_xseq", "ratio"},
      {"lat_p90_xseq", "ratio"},
      {"write_p50_xseq", "ratio"},
      {"throughput_xseq", "ratio"},
  };
  return kMetrics;
}

namespace {

/// Spans whose median self time the traced run reports, in the order the
/// per-layer table lists them.
const std::vector<std::string>& TracedSpanNames() {
  static const std::vector<std::string> kNames = {
      "setup",         "spawn",           "generate",
      "partition",     "build",           "first_answer",
      "read",          "session_run",     "oracle",
      "write",         "apply_mutations", "run_incremental",
      "client.sssp",   "client.mutate",   "client.cc",
      "ref_slice",     "server.start",    "server.shutdown",
  };
  return kNames;
}

std::vector<MetricSpec> BuildPerLayerMetrics() {
  std::vector<MetricSpec> m = {
      {"graph.generate_s", "s"},
      {"partition.assign_s", "s"},
      {"partition.build_s", "s"},
      {"rt.spawn_s", "s"},
      {"core.load_ms", "ms"},
      {"partition.edge_cut_frac", "ratio"},
      {"core.supersteps_per_query", "count"},
      {"core.round_ms_p50", "ms"},
      {"core.outside_ms", "ms"},
      {"core.peval_ms", "ms"},
      {"core.inceval_ms", "ms"},
      {"core.coord_ms", "ms"},
      {"core.assemble_ms", "ms"},
      {"rt.messages_per_query", "count"},
      {"rt.bytes_per_query", "bytes"},
      {"serve.lanes_per_wave", "count"},
      {"serve.fused_frac", "ratio"},
      {"serve.waves", "count"},
      {"serve.delta_refresh_frac", "ratio"},
      {"serve.cache_hit_frac", "ratio"},
      {"serve.deferred_transitions", "count"},
      {"serve.errors", "count"},
      {"ops_attempted", "count"},
      {"ops_failed", "count"},
      {"apps.seq_ms", "ms"},
      {"apps.seq_iqr_frac", "ratio"},
      {"client.read_p50_ms", "ms"},
      {"client.read_p90_ms", "ms"},
      {"client.write_p50_ms", "ms"},
      {"client.reads_per_s", "1/s"},
      {"trace.overhead_lat_p50_xseq", "ratio"},
      {"trace.overhead_lat_p90_xseq", "ratio"},
  };
  for (const std::string& span : TracedSpanNames()) {
    m.push_back({"span." + span + ".self_ms", "ms"});
  }
  return m;
}

}  // namespace

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = BuildPerLayerMetrics();
  return kMetrics;
}

grape::Result<std::unique_ptr<grape::Transport>> SpawnWorld() {
  // The tcp transport forks its endpoints at creation, and a fork
  // snapshots the worker-app registry: register first.
  grape::RegisterBuiltinWorkerApps();
  return grape::MakeTransport(kTransport, kFragments + 1);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double EndpointPeakRssMb(const grape::Transport& world) {
  double peak_mb = 0;
  for (int64_t pid : world.endpoint_process_ids()) {
    if (pid <= 0) continue;
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) != 0) continue;
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      peak_mb = std::max(peak_mb, kib / 1024.0);
    }
  }
  return peak_mb;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(stat >> v)) return CpuTicks{};
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double StealFraction(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double TickSeconds() {
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? 1.0 / static_cast<double>(hz) : 0.01;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double SetupSteal::Exposure() const {
  if (phase_stolen_ <= 0) return 0;
  return std::min(lost_s_ / phase_stolen_, TickSeconds());
}

std::vector<double> SetupSteal::RawSeconds() const {
  std::vector<double> out;
  for (const auto& [wall_s, stolen] : setups_) out.push_back(wall_s);
  return out;
}

std::vector<double> SetupSteal::CorrectedSeconds() const {
  const double exposure = Exposure();
  std::vector<double> out;
  for (const auto& [wall_s, stolen] : setups_) {
    out.push_back(StealCorrected(wall_s, stolen, exposure));
  }
  return out;
}

grape::VertexId NearbyGridVertex(grape::VertexId u, uint32_t rows,
                                 uint32_t cols, std::mt19937_64& rng) {
  const auto r = static_cast<int64_t>(u / cols);
  const auto c = static_cast<int64_t>(u % cols);
  const int64_t dr = static_cast<int64_t>(rng() % 5) - 2;
  const int64_t dc = static_cast<int64_t>(rng() % 5) - 2;
  // |dr| + |dc| == 1 is a lattice edge the graph already has.
  if (std::abs(dr) + std::abs(dc) < 2) return u;
  const int64_t nr = r + dr;
  const int64_t nc = c + dc;
  if (nr < 0 || nc < 0 || nr >= rows || nc >= cols) return u;
  return static_cast<grape::VertexId>(nr * cols + nc);
}

void ReportCommonLayers(const std::vector<double>& oracle_s,
                        const Tracer& tracer, RunResult* result) {
  const Quartiles q = QuartilesOf(oracle_s);
  result->per_layer["apps.seq_ms"] = q.median * 1e3;
  result->per_layer["apps.seq_iqr_frac"] = q.iqr_frac();
  result->diagnostics["apps.seq_ms"] = q.median * 1e3;
  result->diagnostics["apps.seq_q1_ms"] = q.q1 * 1e3;
  result->diagnostics["apps.seq_q3_ms"] = q.q3 * 1e3;
  result->diagnostics["apps.seq_samples"] = static_cast<double>(oracle_s.size());

  const auto self = tracer.SelfTimesMs();
  for (const std::string& span : TracedSpanNames()) {
    const auto it = self.find(span);
    result->per_layer["span." + span + ".self_ms"] =
        it == self.end() ? 0.0 : Median(it->second);
  }
  result->per_layer["ops_attempted"] =
      static_cast<double>(result->ledger.attempted());
  result->per_layer["ops_failed"] =
      static_cast<double>(result->ledger.failed());
}

}  // namespace perfbench
