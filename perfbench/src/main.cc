// Benchmark entry point: runs one workload for a fixed time and prints, as the
// last line of stdout, one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end metrics; with
// --trace 1 they are the per-layer metrics of a traced run, whose spans are
// also written as Chrome trace-event JSON. The line before the result
// carries drift diagnostics (oracle yardstick, machine and thread budget).
//
//   grape_perfbench --workload road-sssp --seed 1 --seconds 25 --trace 0
//       [--trace-out trace.json]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "grape_perfbench: %s\nusage: grape_perfbench --workload "
               "road-sssp|powerlaw-pagerank|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  Tracer tracer;
  RunResult result;
  Status status;
  if (options.workload == "road-sssp") {
    status = RunRoadSssp(options, &tracer, &result);
  } else if (options.workload == "powerlaw-pagerank") {
    status = RunPowerlawPageRank(options, &tracer, &result);
  } else if (options.workload == "serve-mixed") {
    status = RunServeMixed(options, &tracer, &result);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "grape_perfbench: %s failed: %s\n",
                 options.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  if (options.trace && !options.trace_path.empty()) {
    Status written = tracer.WriteChromeJson(options.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "grape_perfbench: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  const OpLedger& ledger = result.ledger;
  for (const std::string& why : ledger.first_failures()) {
    std::fprintf(stderr, "grape_perfbench: failed operation: %s\n",
                 why.c_str());
  }

  // Drift diagnostics: the yardstick, the machine, the thread budget.
  result.diagnostics["nproc"] = std::thread::hardware_concurrency();
  result.diagnostics["fragments"] = kFragments;
  result.diagnostics["seed"] = static_cast<double>(options.seed);
  result.notes["transport"] = kTransport;
  result.notes["workload"] = options.workload;
  std::string diag = "{\"diagnostics\": {";
  bool first = true;
  for (const auto& [key, value] : result.notes) {
    diag += (first ? "" : ", ") + Quote(key) + ": " + Quote(value);
    first = false;
  }
  for (const auto& [key, value] : result.diagnostics) {
    diag += ", " + Quote(key) + ": " + Number(value);
  }
  std::printf("%s}}\n", diag.c_str());

  const auto& specs = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = options.trace ? result.per_layer : result.end_to_end;
  bool finite = true;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    const double v = it == values.end() ? 0.0 : it->second;
    finite = finite && std::isfinite(v);
    metrics += (metrics.empty() ? "" : ", ") + Quote(spec.name) +
               ": {\"value\": " + Number(v) + ", \"unit\": " +
               Quote(spec.unit) + "}";
  }
  const bool correct =
      ledger.attempted() > 0 && ledger.failed() == 0 && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted()),
      static_cast<unsigned long long>(ledger.failed()), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
