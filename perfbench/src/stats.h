#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Order statistics the benchmark reports. Every gated latency is a ratio
// of an engine time to the sequential oracle's time on the same input, so
// the helpers here work on plain samples and know nothing about units.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for an even count); 0 for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it. 0 for no samples.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  const auto rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// The highest whole percentile that still has at least `min_beyond`
/// samples beyond it, or 0 when n <= min_beyond. A tail percentile is only
/// reported when this is at least as high as the percentile's name.
inline int HighestPercentileWithTail(size_t n, size_t min_beyond = 10) {
  for (int p = 99; p >= 1; --p) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0;
}

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
/// default "exclusive" method), so in-run spreads read the same as the
/// spreads computed over repeated runs.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  /// (q3 - q1) / median, 0 when the median is 0.
  double iqr_frac() const { return median != 0 ? (q3 - q1) / median : 0; }
};

inline Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  const size_t m = v.size() + 1;
  auto cut = [&](size_t i) {
    const size_t j = std::clamp<size_t>(i * m / 4, 1, v.size() - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.median = cut(2);
  q.q3 = cut(3);
  return q;
}

/// engine[i] / oracle[i] for every pair with a positive oracle time.
inline std::vector<double> PairedRatios(const std::vector<double>& engine,
                                        const std::vector<double>& oracle) {
  std::vector<double> out;
  const size_t n = std::min(engine.size(), oracle.size());
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (oracle[i] > 0) out.push_back(engine[i] / oracle[i]);
  }
  return out;
}

/// Median over pairs of engine time / oracle time. Each pair was measured
/// adjacent in time, so host drift between pairs cancels.
inline double MedianOfPairedRatios(const std::vector<double>& engine,
                                   const std::vector<double>& oracle) {
  return Median(PairedRatios(engine, oracle));
}

/// Theil–Sen slope of y on x: the median of the slopes through every pair
/// of points with distinct x. A few wild points cannot tilt it, unlike a
/// least-squares fit. 0 when no two x differ.
inline double TheilSenSlope(const std::vector<double>& x,
                            const std::vector<double>& y) {
  std::vector<double> slopes;
  const size_t n = std::min(x.size(), y.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (x[i] != x[j]) slopes.push_back((y[j] - y[i]) / (x[j] - x[i]));
    }
  }
  return Median(std::move(slopes));
}

/// A time with the host's theft taken out: `seconds` minus `per_tick`
/// seconds for each of the `stolen` ticks the host took while it ran. The
/// result never falls below a twentieth of the measured time, so a call
/// that overlapped far more stolen time than its own critical path
/// absorbed cannot read as free.
inline double StealCorrected(double seconds, double stolen, double per_tick) {
  return std::max(seconds - per_tick * stolen, seconds / 20);
}

/// Reference times for segments cut between reference slices: slice i
/// was timed right before segment i and slice i+1 right after it, so
/// segment i is normalized by the median of those two neighbours. Returns
/// one reference per segment (slices.size() - 1 of them).
inline std::vector<double> SegmentReferences(
    const std::vector<double>& slices) {
  std::vector<double> refs;
  for (size_t i = 0; i + 1 < slices.size(); ++i) {
    refs.push_back(Median({slices[i], slices[i + 1]}));
  }
  return refs;
}

/// Divides every sample by its segment's reference. `segment[i]` indexes
/// `refs`; samples of segments without a positive reference are dropped.
inline std::vector<double> NormalizeBySegment(
    const std::vector<double>& samples, const std::vector<size_t>& segment,
    const std::vector<double>& refs) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (size_t i = 0; i < samples.size() && i < segment.size(); ++i) {
    if (segment[i] < refs.size() && refs[segment[i]] > 0) {
      out.push_back(samples[i] / refs[segment[i]]);
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
