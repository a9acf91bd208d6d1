#ifndef GRAPE_RT_LIVENESS_H_
#define GRAPE_RT_LIVENESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace grape {

/// Coordinator-side failure detector for the fault-tolerant engine path.
///
/// Two signals feed it:
///  - `Heard(rank)` from the engine's await loops whenever any frame arrives
///    from a worker (data, ack, partial, pong — all count as proof of life);
///  - an optional pid probe (waitpid(WNOHANG) over the transport's endpoint
///    pids) so a SIGKILLed local endpoint is detected within one poll
///    interval instead of only when the next Send hits a dead socket.
///
/// The monitor never acts on its own — `Check()` returns a Status the
/// engine's bounded-time liveness loop surfaces, which then triggers the
/// recovery path when a CheckpointPolicy is enabled.
class WorkerLivenessMonitor {
 public:
  /// Probe callback: returns true when the worker serving fragment `frag`
  /// is known dead (e.g. its endpoint process was reaped).
  using PidProbe = std::function<bool(uint32_t frag)>;

  WorkerLivenessMonitor() = default;
  WorkerLivenessMonitor(uint32_t num_workers, uint64_t lease_ms);

  void Reset(uint32_t num_workers, uint64_t lease_ms);

  /// Records proof of life for fragment `frag` (0-based fragment id).
  void Heard(uint32_t frag);

  void set_pid_probe(PidProbe probe) { probe_ = std::move(probe); }

  /// True when the lease (no frame heard for `lease_ms`) makes a ping
  /// worth sending to `frag`. Resets the ping clock so callers do not
  /// flood; pings are control frames invisible to CommStats.
  bool ShouldPing(uint32_t frag);

  /// Unavailable when any worker's endpoint is known dead via the pid
  /// probe; OK otherwise. Lease expiry alone never fails the run here —
  /// the engine's own deadline handles silent hangs — so a slow IncEval
  /// is not misclassified as death.
  Status Check();

  uint64_t last_heard_ms(uint32_t frag) const;

  static uint64_t NowMs();

 private:
  uint64_t lease_ms_ = 0;
  std::vector<uint64_t> last_heard_;
  std::vector<uint64_t> last_ping_;
  PidProbe probe_;
};

}  // namespace grape

#endif  // GRAPE_RT_LIVENESS_H_
