#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around each public call it makes into the engine (generate,
// partition, build, spawn, SessionRun, oracle calls, ServeClient requests,
// server Start/Shutdown); spans of one request share an id. At exit the
// spans are written as Chrome trace-event JSON (chrome://tracing,
// Perfetto). When tracing is off a span costs one relaxed atomic load.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  uint32_t thread = 0;
  double start_us = 0;
  double dur_us = 0;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Tracing can be switched on and off between blocks of a run (the
  /// traced run alternates traced and untraced blocks to measure the
  /// tracer's own overhead).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// One open span; records itself when it ends or is destroyed. Spans
  /// nest per thread through `parent`.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request,
         const Span* parent = nullptr)
        : tracer_(tracer->enabled() ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      rec_.name = name;
      rec_.id = tracer_->next_span_.fetch_add(1) + 1;
      rec_.parent = parent != nullptr ? parent->rec_.id : 0;
      rec_.request = request;
      rec_.start_us = tracer_->NowUs();
    }
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void Arg(const char* key, double value) {
      if (tracer_ != nullptr) rec_.args.emplace_back(key, value);
    }
    void End() {
      if (tracer_ == nullptr) return;
      rec_.dur_us = tracer_->NowUs() - rec_.start_us;
      tracer_->Add(std::move(rec_));
      tracer_ = nullptr;
    }

   private:
    Tracer* tracer_;
    SpanRecord rec_;
  };

  /// Thread ids shown in the trace: the caller names its thread once.
  static void SetThreadIndex(uint32_t index) { ThreadIndex() = index; }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time of every recorded span, grouped by span name, in ms: the
  /// span's duration minus the time its children cover.
  std::map<std::string, std::vector<double>> SelfTimesMs() const;

  /// Writes every span as Chrome trace-event JSON.
  grape::Status WriteChromeJson(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  static uint32_t& ThreadIndex() {
    thread_local uint32_t index = 0;
    return index;
  }
  void Add(SpanRecord rec) {
    rec.thread = ThreadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(rec));
  }

  const Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_span_{0};
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
