#ifndef GRAPE_UTIL_SERIALIZER_H_
#define GRAPE_UTIL_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace grape {

/// Append-only binary encoder. All inter-worker messages in the runtime are
/// physically serialized through Encoder/Decoder, which is what makes the
/// communication-volume numbers reported by the benchmarks honest.
class Encoder {
 public:
  Encoder() = default;

  /// Adopts a recycled buffer (e.g. from a BufferPool): the encoder starts
  /// logically empty but keeps the vector's capacity, so steady-state reuse
  /// encodes without heap allocation.
  explicit Encoder(std::vector<uint8_t>&& recycled) : buf_(std::move(recycled)) {
    buf_.clear();
  }

  void WriteU8(uint8_t v) { buf_.push_back(v); }

  /// Little-endian fixed-width integers.
  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { AppendRaw(&v, sizeof(v)); }
  void WriteFloat(float v) { AppendRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  /// LEB128 variable-length encoding; small values dominate graph messages
  /// (local degrees, hop counts), so this is the default for counters.
  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  void WriteString(const std::string& s) {
    WriteVarint(s.size());
    AppendRaw(s.data(), s.size());
  }

  /// Any trivially-copyable value as raw little-endian bytes.
  template <typename T>
  void WritePod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    AppendRaw(&v, sizeof(v));
  }

  /// Vector of trivially-copyable elements, length-prefixed.
  template <typename T>
  void WritePodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteVarint(v.size());
    AppendRaw(v.data(), v.size() * sizeof(T));
  }

  /// Unprefixed block of trivially-copyable elements: one memcpy, no
  /// per-element dispatch. The caller owns the framing (element count).
  template <typename T>
  void WritePodSpan(const T* data, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    AppendRaw(data, n * sizeof(T));
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  void AppendRaw(const void* data, size_t n) {
    if (n == 0) return;  // `data` may be an empty vector's null data()
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a byte buffer produced by Encoder. Every Read*
/// returns a Status so truncated or corrupt buffers surface as errors rather
/// than undefined behaviour.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const std::vector<uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  Status ReadU8(uint8_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadI32(int32_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadI64(int64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadDouble(double* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadFloat(float* out) { return ReadRaw(out, sizeof(*out)); }

  Status ReadBool(bool* out) {
    uint8_t b = 0;
    GRAPE_RETURN_NOT_OK(ReadU8(&b));
    *out = (b != 0);
    return Status::OK();
  }

  Status ReadVarint(uint64_t* out) {
    uint64_t result = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_) {
        return Status::Corruption("varint extends past end of buffer");
      }
      uint8_t byte = data_[pos_++];
      if (shift >= 63 && byte > 1) {
        return Status::Corruption("varint overflows uint64");
      }
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    *out = result;
    return Status::OK();
  }

  Status ReadString(std::string* out) {
    uint64_t n = 0;
    GRAPE_RETURN_NOT_OK(ReadVarint(&n));
    if (n > Remaining()) {
      return Status::Corruption("string extends past end of buffer");
    }
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  template <typename T>
  Status ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(out, sizeof(*out));
  }

  /// Counterpart of WritePodSpan: fills `n` elements starting at `out` with
  /// one bounds-checked memcpy.
  template <typename T>
  Status ReadPodSpan(T* out, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > Remaining() / sizeof(T)) {
      return Status::Corruption("pod span extends past end of buffer");
    }
    return ReadRaw(out, n * sizeof(T));
  }

  template <typename T>
  Status ReadPodVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    GRAPE_RETURN_NOT_OK(ReadVarint(&n));
    if (n > Remaining() / sizeof(T)) {
      return Status::Corruption("vector extends past end of buffer");
    }
    out->resize(n);
    return ReadRaw(out->data(), n * sizeof(T));
  }

  size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t position() const { return pos_; }

 private:
  Status ReadRaw(void* out, size_t n) {
    if (n > Remaining()) {
      return Status::Corruption("read past end of buffer");
    }
    // An empty vector's data() may be null, and memcpy's pointers must
    // not be, even for a zero-byte copy.
    if (n == 0) return Status::OK();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace grape

#endif  // GRAPE_UTIL_SERIALIZER_H_
