#ifndef GRAPE_UTIL_BITSET_H_
#define GRAPE_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace grape {

/// Dense dynamic bitset used for frontier tracking in BFS-style algorithms
/// and for "changed" flags over fragment vertices.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(size_t n) { Resize(n); }

  void Resize(size_t n) {
    size_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  size_t size() const { return size_; }

  void Set(size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  void Reset(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void Clear() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += __builtin_popcountll(w);
    return c;
  }

  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Calls fn(i) for each set bit in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        int bit = __builtin_ctzll(w);
        fn(wi * 64 + bit);
        w &= w - 1;
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

}  // namespace grape

#endif  // GRAPE_UTIL_BITSET_H_
