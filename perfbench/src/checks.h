#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Answer checks against the apps/seq oracles and the failure ledger every
// workload reports as attempted/failed.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// Counts operations and the ones that failed: a wrong answer, an error
/// reply or a timeout. Keeps the first few failure descriptions for the
/// run's diagnostics.
class OpLedger {
 public:
  void Record(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (first_failures_.size() < 5) first_failures_.push_back(what);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& first_failures() const {
    return first_failures_;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> first_failures_;
};

/// An operation slower than this counts as failed (timed out) even when
/// its answer is right.
inline constexpr double kOpTimeoutSeconds = 10.0;

/// Bit equality of two answers (SSSP distances, CC labels).
template <typename T>
bool BitEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// L1 distance of two rank vectors; +inf when their sizes differ.
inline double L1Distance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

/// PageRank answers are summed in another order than SeqPageRank's, so
/// they are checked to this L1 distance rather than bit for bit. The rank
/// vector sums to at most 1; reordering 20 rounds of sums moves it by
/// round-off only (about 1e-15 on the benchmark graphs).
inline constexpr double kPageRankL1Tolerance = 1e-9;

/// 64-bit hash of an answer's bytes, word by word. Serve reads are checked
/// after the timed phase, so only this fingerprint of each is kept.
template <typename T>
uint64_t HashAnswer(const std::vector<T>& v) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  const size_t n = v.size() * sizeof(T);
  uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, bytes + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001b3ull;
  return h;
}

/// A serve read answered while writes were in flight: its answer must equal
/// the oracle's at some graph version in [lo, hi] — lo is the last version
/// a write had returned when the read was sent, hi the number of writes
/// sent by the time its answer arrived.
struct BracketedRead {
  uint32_t source = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t answer_hash = 0;
};

/// True when some version in the read's bracket has an oracle answer whose
/// hash equals the read's. `oracle_hash(source, version)` gives the hash
/// of the oracle's answer on that graph version.
template <typename OracleHash>
bool ReadMatchesSomeVersion(const BracketedRead& r, OracleHash&& oracle_hash) {
  for (uint64_t k = r.lo; k <= r.hi; ++k) {
    if (oracle_hash(r.source, k) == r.answer_hash) return true;
  }
  return false;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
