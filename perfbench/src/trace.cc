#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::map<std::string, std::vector<double>> Tracer::SelfTimesMs() const {
  const std::vector<SpanRecord> all = spans();
  std::map<uint64_t, double> child_us;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) child_us[s.parent] += s.dur_us;
  }
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : all) {
    const auto it = child_us.find(s.id);
    const double children = it == child_us.end() ? 0.0 : it->second;
    out[s.name].push_back(std::max(0.0, s.dur_us - children) / 1e3);
  }
  return out;
}

grape::Status Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return grape::Status::IOError("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
        << s.thread << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
        << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request;
    for (const auto& [key, value] : s.args) {
      out << ",\"" << key << "\":" << value;
    }
    out << "}}";
  }
  out << "\n]}\n";
  out.close();
  return out ? grape::Status::OK()
             : grape::Status::IOError("short write to trace " + path);
}

}  // namespace perfbench
