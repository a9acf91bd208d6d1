// Unit checks of the benchmark's own helpers: the tail-percentile rule,
// the median of paired ratios, the steal correction, the segment
// normalizer, and the failure accounting of a corrupted answer. Exits
// non-zero when any check fails.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "apps/seq/seq_algorithms.h"
#include "checks.h"
#include "graph/generators.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TailPercentile() {
  // 100 samples: p90 leaves exactly 10 beyond it, p91 only 9.
  Expect(SamplesBeyond(100, 90) == 10, "100 samples: 10 beyond p90");
  Expect(HighestPercentileWithTail(100) == 90, "100 samples: p90 is highest");
  Expect(HighestPercentileWithTail(1000) == 99, "1000 samples: p99");
  Expect(HighestPercentileWithTail(10) == 0, "10 samples: no tail");
  Expect(HighestPercentileWithTail(20) == 50, "20 samples: p50");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(Percentile(v, 90) == 90, "nearest-rank p90 of 1..100 is 90");
  Expect(Percentile(v, 50) == 50, "nearest-rank p50 of 1..100 is 50");
}

void PairedRatioMedian() {
  // The oracle drifts 2x over the run; each pair still reads 0.5.
  const std::vector<double> engine = {1, 2, 3, 4, 10};
  const std::vector<double> oracle = {2, 4, 6, 8, 1};
  Expect(Near(MedianOfPairedRatios(engine, oracle), 0.5),
         "median of paired ratios ignores drift and one outlier");
  Expect(Near(Median({3, 1, 2, 4}), 2.5), "even-count median");
}

void StealCorrection() {
  // Time = 50 ms + 6 ms per stolen tick, plus one call that a cold cache
  // slowed without any theft: the fitted cost stays 6 ms per tick.
  const std::vector<double> ticks = {0, 1, 2, 3, 4, 0};
  const std::vector<double> secs = {0.050, 0.056, 0.062, 0.068, 0.074, 0.5};
  const double per_tick = TheilSenSlope(ticks, secs);
  Expect(std::fabs(per_tick - 0.006) < 1e-12,
         "Theil-Sen slope ignores one wild point");
  Expect(std::fabs(StealCorrected(0.068, 3, per_tick) - 0.050) < 1e-12,
         "corrected time takes the stolen ticks' cost out");
  Expect(Near(StealCorrected(0.040, 10, 0.01), 0.002),
         "a correction never takes a time below a twentieth");
  Expect(TheilSenSlope({2, 2, 2}, {1, 2, 3}) == 0, "no distinct x: slope 0");
}

void QuartileRule() {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  const auto q = QuartilesOf(v);
  Expect(Near(q.q1, 2.75) && Near(q.median, 5.5) && Near(q.q3, 8.25),
         "quartiles match Python's exclusive method");
  // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
  const auto q2 = QuartilesOf({5, 1});
  Expect(Near(q2.q1, 0.0) && Near(q2.median, 3.0) && Near(q2.q3, 6.0),
         "two-sample quartiles match Python");
}

void SegmentNormalizer() {
  // Slices 1.0, 3.0, 2.0 around two segments: references 2.0 and 2.5.
  const auto refs = SegmentReferences({1.0, 3.0, 2.0});
  Expect(refs.size() == 2 && Near(refs[0], 2.0) && Near(refs[1], 2.5),
         "segment references are medians of neighbouring slices");
  const auto out = NormalizeBySegment({4.0, 5.0, 7.0}, {0, 1, 5}, refs);
  Expect(out.size() == 2 && Near(out[0], 2.0) && Near(out[1], 2.0),
         "samples divided by their own segment's reference");
}

void CorruptedAnswerFails() {
  auto g = grape::GenerateGridRoad(12, 12, 3);
  Expect(g.ok(), "grid generates");
  const std::vector<double> want = grape::SeqDijkstra(*g, 0);
  std::vector<double> got = want;
  OpLedger ledger;
  ledger.Record(BitEqual(got, want), "intact");
  got[7] += 1;  // corrupt one distance
  ledger.Record(BitEqual(got, want), "corrupted");
  Expect(ledger.attempted() == 2 && ledger.failed() == 1,
         "a corrupted SSSP answer is counted as failed");

  std::vector<double> rank(10, 0.1);
  std::vector<double> bad = rank;
  bad[3] += 1e-6;
  Expect(L1Distance(rank, rank) <= kPageRankL1Tolerance, "exact rank passes");
  Expect(L1Distance(bad, rank) > kPageRankL1Tolerance,
         "a rank off by 1e-6 fails the L1 tolerance");

  // A serve read matches if some version in its bracket agrees.
  const std::vector<uint64_t> by_version = {11, 22, 33};
  auto oracle = [&](uint32_t, uint64_t k) { return by_version[k]; };
  BracketedRead r{0, 1, 2, 33};
  Expect(ReadMatchesSomeVersion(r, oracle), "read matching version 2 passes");
  r.answer_hash = 11;  // right answer, but for a version outside [1, 2]
  Expect(!ReadMatchesSomeVersion(r, oracle), "stale read fails");
  r.answer_hash = HashAnswer(got);
  Expect(!ReadMatchesSomeVersion(r, oracle), "corrupted read fails");
  Expect(HashAnswer(got) != HashAnswer(want), "hash sees the corruption");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TailPercentile();
  perfbench::PairedRatioMedian();
  perfbench::StealCorrection();
  perfbench::QuartileRule();
  perfbench::SegmentNormalizer();
  perfbench::CorruptedAnswerFails();
  if (perfbench::failures == 0) std::printf("perfbench selftest: all passed\n");
  return perfbench::failures == 0 ? 0 : 1;
}
