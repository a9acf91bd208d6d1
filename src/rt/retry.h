#ifndef GRAPE_RT_RETRY_H_
#define GRAPE_RT_RETRY_H_

#include <time.h>

#include <cstdint>

namespace grape {

/// Bounded retry/backoff schedule shared by everything in the runtime that
/// waits on an unreliable peer: tcp connect/rendezvous, cluster endpoint
/// re-admission, and post-failure world respawn. Centralizing the schedule
/// means one knob set instead of scattered magic sleeps (ISSUE 7 satellite).
///
/// Deliberately allocation-free and async-signal-safe: the tcp backend
/// calls into this from freshly forked endpoint processes where only
/// AS-safe operations are allowed (integer math + nanosleep, no malloc, no
/// <random>). Jitter therefore comes from a tiny inline LCG seeded by the
/// caller, not from util/random.h.
struct RetryPolicy {
  /// First backoff delay. Subsequent delays multiply by backoff_multiple
  /// until capped at max_backoff_ms.
  uint64_t initial_backoff_ms = 20;
  uint64_t max_backoff_ms = 1000;
  uint32_t backoff_multiple = 2;
  /// Fraction of the delay randomized away, in percent [0, 100]. 25 means
  /// each sleep is uniform in [0.75 * delay, delay] — enough to de-thundering-
  /// herd a cluster of ranks retrying the same rendezvous point.
  uint32_t jitter_pct = 25;
  /// Hard ceiling on attempts (0 = unbounded; the deadline still applies).
  uint32_t max_attempts = 0;
};

/// Stateful retry loop driver:
///
///   RetryState retry(policy, deadline_ms, seed);
///   while (true) {
///     if (TryTheThing()) break;
///     if (!retry.BackoffOrGiveUp()) return failure;
///   }
///
/// deadline_ms is an absolute CLOCK_MONOTONIC timestamp in milliseconds
/// (0 = no deadline). BackoffOrGiveUp sleeps the next scheduled delay
/// (clamped so it never sleeps past the deadline) and returns false once the
/// deadline or the attempt cap is exhausted.
class RetryState {
 public:
  RetryState(const RetryPolicy& policy, uint64_t deadline_ms,
             uint64_t jitter_seed = 0)
      : policy_(policy),
        deadline_ms_(deadline_ms),
        next_delay_ms_(policy.initial_backoff_ms),
        lcg_(jitter_seed * 6364136223846793005ULL + 1442695040888963407ULL) {}

  static uint64_t NowMs() {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000ULL +
           static_cast<uint64_t>(ts.tv_nsec) / 1000000ULL;
  }

  uint32_t attempts() const { return attempts_; }

  /// True when another attempt is allowed right now (deadline not yet
  /// passed, attempt cap not yet reached). Does not sleep.
  bool CanAttempt() const {
    if (policy_.max_attempts != 0 && attempts_ >= policy_.max_attempts) {
      return false;
    }
    return deadline_ms_ == 0 || NowMs() < deadline_ms_;
  }

  /// Records a failed attempt, sleeps the next backoff delay (jittered,
  /// clamped to the deadline), and reports whether the caller should retry.
  bool BackoffOrGiveUp() {
    ++attempts_;
    if (policy_.max_attempts != 0 && attempts_ >= policy_.max_attempts) {
      return false;
    }
    uint64_t delay = next_delay_ms_;
    if (policy_.jitter_pct > 0 && delay > 0) {
      // AS-safe LCG; shave off up to jitter_pct percent of the delay.
      lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
      uint64_t span = delay * policy_.jitter_pct / 100;
      if (span > 0) delay -= (lcg_ >> 33) % (span + 1);
    }
    if (deadline_ms_ != 0) {
      uint64_t now = NowMs();
      if (now >= deadline_ms_) return false;
      uint64_t remaining = deadline_ms_ - now;
      if (delay > remaining) delay = remaining;
    }
    if (delay > 0) {
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(delay / 1000);
      ts.tv_nsec = static_cast<long>((delay % 1000) * 1000000ULL);
      nanosleep(&ts, nullptr);
    }
    // Grow the schedule for next time, capped.
    uint64_t next = next_delay_ms_ * policy_.backoff_multiple;
    next_delay_ms_ =
        next > policy_.max_backoff_ms ? policy_.max_backoff_ms : next;
    return deadline_ms_ == 0 || NowMs() < deadline_ms_;
  }

 private:
  RetryPolicy policy_;
  uint64_t deadline_ms_;
  uint64_t next_delay_ms_;
  uint64_t lcg_;
  uint32_t attempts_ = 0;
};

}  // namespace grape

#endif  // GRAPE_RT_RETRY_H_
