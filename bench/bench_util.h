#ifndef GRAPE_BENCH_BENCH_UTIL_H_
#define GRAPE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "apps/sssp.h"
#include "baseline/block_apps.h"
#include "baseline/block_engine.h"
#include "baseline/gas_apps.h"
#include "baseline/gas_engine.h"
#include "baseline/vc_apps.h"
#include "baseline/vc_engine.h"
#include "bench/bench_report.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace grape {
namespace bench {

/// One row of a system-comparison table.
struct SystemRow {
  std::string system;
  std::string category;
  double seconds = 0;
  uint64_t bytes = 0;
  uint64_t messages = 0;
  uint32_t supersteps = 0;
  bool correct = true;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintSystemTable(const std::vector<SystemRow>& rows) {
  std::printf("%-22s %-22s %10s %12s %12s %10s %8s\n", "System", "Category",
              "Time(s)", "Comm", "Messages", "Supersteps", "Correct");
  for (const SystemRow& r : rows) {
    std::printf("%-22s %-22s %10.3f %12s %12s %10u %8s\n", r.system.c_str(),
                r.category.c_str(), r.seconds, HumanBytes(r.bytes).c_str(),
                HumanCount(r.messages).c_str(), r.supersteps,
                r.correct ? "yes" : "NO");
  }
}

inline ReportRow ToReportRow(const SystemRow& r) {
  ReportRow row;
  row.system = r.system;
  row.category = r.category;
  row.time_s = r.seconds;
  row.comm_mb = static_cast<double>(r.bytes) / (1024.0 * 1024.0);
  row.rounds = r.supersteps;
  row.messages = r.messages;
  row.correct = r.correct;
  return row;
}

inline void AddSystemTable(const std::vector<SystemRow>& rows,
                           Report* report) {
  for (const SystemRow& r : rows) report->Add(ToReportRow(r));
}

/// Builds a report row from an engine run; callers override fields that
/// deviate (e.g. inceval-only time, routed-update message counts).
inline ReportRow MetricsRow(const std::string& system,
                            const std::string& category,
                            const EngineMetrics& m) {
  ReportRow row;
  row.system = system;
  row.category = category;
  row.time_s = m.total_seconds;
  row.comm_mb = static_cast<double>(m.bytes) / (1024.0 * 1024.0);
  row.rounds = m.supersteps;
  row.messages = m.messages;
  return row;
}

/// Parses a bench's flags: its own `names` plus the bench-wide `--json`
/// (MaybeWriteJson). An unknown flag aborts with the parse error.
inline FlagParser ParseBenchFlags(int argc, char** argv,
                                  std::vector<std::string> names) {
  names.push_back("json");
  FlagParser flags;
  const Status parsed = flags.Parse(argc, argv, names);
  GRAPE_CHECK(parsed.ok()) << parsed.ToString();
  return flags;
}

/// Honors the bench-wide `--json <path>` flag: writes `report` there when
/// given, aborting (bench-grade handling) if the file cannot be written.
inline void MaybeWriteJson(const FlagParser& flags, const Report& report) {
  const std::string path = flags.GetString("json", "");
  if (path.empty()) return;
  // FlagParser turns a valueless `--json` into the string "true"; writing
  // a report to a file literally named "true" is never what was meant.
  GRAPE_CHECK(path != "true")
      << "--json requires a path (e.g. --json out.json)";
  Status s = report.WriteFile(path);
  GRAPE_CHECK(s.ok()) << s;
  std::printf("\nwrote JSON report (%zu rows) to %s\n", report.rows().size(),
              path.c_str());
}

/// Partitions + fragments, aborting on error (bench-grade handling).
inline FragmentedGraph Fragmentize(const Graph& g, const std::string& strategy,
                                   FragmentId n) {
  auto partitioner = MakePartitioner(strategy);
  GRAPE_CHECK(partitioner.ok()) << partitioner.status();
  auto assignment = (*partitioner)->Partition(g, n);
  GRAPE_CHECK(assignment.ok()) << assignment.status();
  auto fg = FragmentBuilder::Build(g, *assignment, n);
  GRAPE_CHECK(fg.ok()) << fg.status();
  return std::move(fg).value();
}

/// Checks an SSSP answer against the reference distances.
inline bool SsspMatches(const std::vector<double>& got,
                        const std::vector<double>& expected) {
  if (got.size() != expected.size()) return false;
  for (size_t v = 0; v < got.size(); ++v) {
    if (got[v] != expected[v]) return false;
  }
  return true;
}

/// Runs GRAPE SSSP; fills a table row. `metrics_out`, when non-null,
/// receives the full engine metrics (load/peval/... breakdown).
inline SystemRow RunGrapeSssp(const FragmentedGraph& fg, VertexId source,
                              const std::vector<double>& expected,
                              EngineOptions options = {},
                              const std::string& label = "GRAPE",
                              EngineMetrics* metrics_out = nullptr) {
  GrapeEngine<SsspApp> engine(fg, SsspApp{}, options);
  auto out = engine.Run(SsspQuery{source});
  GRAPE_CHECK(out.ok()) << out.status();
  if (metrics_out != nullptr) *metrics_out = engine.metrics();
  SystemRow row;
  row.system = label;
  row.category = "auto-parallelization";
  row.seconds = engine.metrics().total_seconds;
  row.bytes = engine.metrics().bytes;
  row.messages = engine.metrics().messages;
  row.supersteps = engine.metrics().supersteps;
  row.correct = SsspMatches(out->dist, expected);
  return row;
}

/// Runs GRAPE SSSP on fragments built in place by DistributedLoad: the
/// engine holds only `meta` and drives remote compute on the same world.
inline SystemRow RunGrapeSsspDistributed(const DistributedGraphMeta& meta,
                                         VertexId source,
                                         const std::vector<double>& expected,
                                         EngineOptions options,
                                         const std::string& label = "GRAPE",
                                         EngineMetrics* metrics_out = nullptr) {
  GrapeEngine<SsspApp> engine(meta, options);
  auto out = engine.Run(SsspQuery{source});
  GRAPE_CHECK(out.ok()) << out.status();
  if (metrics_out != nullptr) *metrics_out = engine.metrics();
  SystemRow row;
  row.system = label;
  row.category = "auto-parallelization";
  row.seconds = engine.metrics().total_seconds;
  row.bytes = engine.metrics().bytes;
  row.messages = engine.metrics().messages;
  row.supersteps = engine.metrics().supersteps;
  row.correct = SsspMatches(out->dist, expected);
  return row;
}

inline SystemRow RunVcSssp(const FragmentedGraph& fg, VertexId source,
                           const std::vector<double>& expected,
                           const std::string& label = "VertexCentric") {
  VertexCentricEngine<VcSssp> engine(fg, VcSssp{source});
  Status s = engine.Run();
  GRAPE_CHECK(s.ok()) << s;
  SystemRow row;
  row.system = label;
  row.category = "vertex-centric";
  row.seconds = engine.metrics().seconds;
  row.bytes = engine.metrics().bytes;
  row.messages = engine.metrics().vertex_messages;
  row.supersteps = engine.metrics().supersteps;
  row.correct = true;
  for (VertexId v = 0; v < expected.size(); ++v) {
    if (engine.ValueOf(v) != expected[v]) {
      row.correct = false;
      break;
    }
  }
  return row;
}

inline SystemRow RunGasSssp(const FragmentedGraph& fg, VertexId source,
                            const std::vector<double>& expected,
                            const std::string& label = "GAS") {
  GasEngine<GasSssp> engine(fg, GasSssp{source});
  Status s = engine.Run();
  GRAPE_CHECK(s.ok()) << s;
  SystemRow row;
  row.system = label;
  row.category = "vertex-centric (GAS)";
  row.seconds = engine.metrics().seconds;
  row.bytes = engine.metrics().bytes;
  row.messages = engine.metrics().ghost_updates;
  row.supersteps = engine.metrics().rounds;
  row.correct = true;
  for (VertexId v = 0; v < expected.size(); ++v) {
    if (engine.ValueOf(v) != expected[v]) {
      row.correct = false;
      break;
    }
  }
  return row;
}

inline SystemRow RunBlockSssp(const FragmentedGraph& fg, VertexId source,
                              const std::vector<double>& expected,
                              const std::string& label = "BlockCentric") {
  BlockCentricEngine<BlockSssp> engine(fg, BlockSssp{source});
  Status s = engine.Run();
  GRAPE_CHECK(s.ok()) << s;
  SystemRow row;
  row.system = label;
  row.category = "block-centric";
  row.seconds = engine.metrics().seconds;
  row.bytes = engine.metrics().bytes;
  row.messages = engine.metrics().vertex_messages;
  row.supersteps = engine.metrics().supersteps;
  row.correct = true;
  for (VertexId v = 0; v < expected.size(); ++v) {
    if (engine.ValueOf(v) != expected[v]) {
      row.correct = false;
      break;
    }
  }
  return row;
}

}  // namespace bench
}  // namespace grape

#endif  // GRAPE_BENCH_BENCH_UTIL_H_
