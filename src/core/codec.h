#ifndef GRAPE_CORE_CODEC_H_
#define GRAPE_CORE_CODEC_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/serializer.h"
#include "util/status.h"

namespace grape {

/// Serialization of update-parameter values. Arithmetic types, enums, pairs,
/// strings and vectors work out of the box; app-specific structs opt in by
/// providing members
///   void EncodeTo(Encoder&) const;
///   static Status DecodeFrom(Decoder&, T*);
template <typename T>
concept SelfCodable = requires(const T ct, T t, Encoder& enc, Decoder& dec) {
  { ct.EncodeTo(enc) };
  { T::DecodeFrom(dec, &t) } -> std::same_as<Status>;
};

namespace codec_internal {

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

}  // namespace codec_internal

template <typename T>
void EncodeValue(Encoder& enc, const T& value) {
  if constexpr (SelfCodable<T>) {
    value.EncodeTo(enc);
  } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    enc.WritePod(value);
  } else if constexpr (codec_internal::IsVector<T>::value) {
    enc.WriteVarint(value.size());
    for (const auto& e : value) EncodeValue(enc, e);
  } else if constexpr (codec_internal::IsPair<T>::value) {
    EncodeValue(enc, value.first);
    EncodeValue(enc, value.second);
  } else if constexpr (std::is_same_v<T, std::string>) {
    enc.WriteString(value);
  } else {
    static_assert(SelfCodable<T>,
                  "type lacks EncodeTo/DecodeFrom and no built-in codec");
  }
}

namespace codec_internal {

template <typename T>
struct IsWireCodable
    : std::bool_constant<SelfCodable<T> || std::is_arithmetic_v<T> ||
                         std::is_enum_v<T> || std::is_same_v<T, std::string>> {
};
template <typename A, typename B>
struct IsWireCodable<std::pair<A, B>>
    : std::bool_constant<IsWireCodable<A>::value && IsWireCodable<B>::value> {
};
template <typename T>
struct IsWireCodable<std::vector<T>> : IsWireCodable<T> {};

}  // namespace codec_internal

/// True when EncodeValue/DecodeValue handle T — i.e. T can cross a process
/// boundary. A compile-time mirror of EncodeValue's dispatch (which
/// static_asserts instead of SFINAE-failing), so remote-compute support
/// can be gated per app: an app whose Query/Partial types are not wire
/// codable simply cannot be executed in an endpoint process.
template <typename T>
concept WireCodable = codec_internal::IsWireCodable<T>::value;

/// True when EncodeValue writes exactly the value's object representation
/// (sizeof(T) raw little-endian bytes, via WritePod) — i.e. when a block of
/// values can be shipped with one memcpy without changing a single wire
/// byte. SelfCodable types may use varints or skip fields, so they are
/// excluded even when trivially copyable.
template <typename T>
inline constexpr bool kHasPodWireFormat =
    !SelfCodable<T> && (std::is_arithmetic_v<T> || std::is_enum_v<T>);

template <typename T>
Status DecodeValue(Decoder& dec, T* out) {
  if constexpr (SelfCodable<T>) {
    return T::DecodeFrom(dec, out);
  } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return dec.ReadPod(out);
  } else if constexpr (codec_internal::IsVector<T>::value) {
    uint64_t n = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      typename T::value_type e{};
      GRAPE_RETURN_NOT_OK(DecodeValue(dec, &e));
      out->push_back(std::move(e));
    }
    return Status::OK();
  } else if constexpr (codec_internal::IsPair<T>::value) {
    GRAPE_RETURN_NOT_OK(DecodeValue(dec, &out->first));
    return DecodeValue(dec, &out->second);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return dec.ReadString(out);
  } else {
    static_assert(SelfCodable<T>,
                  "type lacks EncodeTo/DecodeFrom and no built-in codec");
  }
}

// ---------------------------------------------------------------------------
// Frame header: the envelope that carries one message payload across a
// process boundary (the tcp transport's length-prefixed frames). Exactly
// 16 bytes on the wire — four little-endian u32 fields: from, to, tag,
// payload length — matching the 16-byte envelope CommStats has always
// charged per message, so tcp wire bytes equal the counted bytes.
// ---------------------------------------------------------------------------

struct FrameHeader {
  uint32_t from = 0;
  uint32_t to = 0;
  uint32_t tag = 0;
  uint32_t payload_len = 0;
};

inline constexpr size_t kFrameHeaderBytes = 16;

/// Hard ceiling on a single frame's payload. Real batches are far smaller;
/// the bound exists so a corrupt length field surfaces as a Status instead
/// of a gigantic allocation in the receiver.
inline constexpr uint32_t kMaxFramePayloadBytes = 1u << 30;

/// Serializes `h` into exactly kFrameHeaderBytes at `out`.
inline void EncodeFrameHeader(const FrameHeader& h,
                              uint8_t out[kFrameHeaderBytes]) {
  auto put = [&out](size_t at, uint32_t v) {
    out[at + 0] = static_cast<uint8_t>(v);
    out[at + 1] = static_cast<uint8_t>(v >> 8);
    out[at + 2] = static_cast<uint8_t>(v >> 16);
    out[at + 3] = static_cast<uint8_t>(v >> 24);
  };
  put(0, h.from);
  put(4, h.to);
  put(8, h.tag);
  put(12, h.payload_len);
}

/// Parses a header from `data` (which must hold at least `n` bytes),
/// validating length and payload bound.
inline Status DecodeFrameHeader(const uint8_t* data, size_t n,
                                FrameHeader* out) {
  if (n < kFrameHeaderBytes) {
    return Status::Corruption("frame header truncated");
  }
  auto get = [data](size_t at) {
    return static_cast<uint32_t>(data[at]) |
           static_cast<uint32_t>(data[at + 1]) << 8 |
           static_cast<uint32_t>(data[at + 2]) << 16 |
           static_cast<uint32_t>(data[at + 3]) << 24;
  };
  out->from = get(0);
  out->to = get(4);
  out->tag = get(8);
  out->payload_len = get(12);
  if (out->payload_len > kMaxFramePayloadBytes) {
    return Status::Corruption("frame payload length " +
                              std::to_string(out->payload_len) +
                              " exceeds the frame bound");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record-block batch codec: the engine's message unit is a run of
// (dst_lid, value) records for one destination fragment. Values with a POD
// wire format are staged by value in structure-of-arrays form and encoded as
// two memcpy blocks (all lids, then all values); other values are staged by
// pointer and encoded per record through EncodeValue. Both layouts write
// exactly varint(count) + count * (4 + wire_size(value)) bytes, i.e. the
// same byte count as the seed's interleaved (gid, value) format, which keeps
// the CommStats byte counters comparable across the refactor.
// ---------------------------------------------------------------------------

/// Outgoing staging buffer for one destination fragment. Reused across
/// supersteps: clear() keeps capacity, so the steady state appends into
/// already-allocated storage.
template <typename V>
struct RecordBlock {
  static constexpr bool kPod = kHasPodWireFormat<V>;
  using Slot = std::conditional_t<kPod, V, const V*>;

  std::vector<uint32_t> lids;
  std::vector<Slot> values;

  size_t size() const { return lids.size(); }
  bool empty() const { return lids.empty(); }
  void clear() {
    lids.clear();
    values.clear();
  }
  void Append(uint32_t dst_lid, const V& value) {
    lids.push_back(dst_lid);
    if constexpr (kPod) {
      values.push_back(value);
    } else {
      values.push_back(&value);
    }
  }
};

template <typename V>
void EncodeRecordBlock(Encoder& enc, const RecordBlock<V>& block) {
  enc.WriteVarint(block.size());
  if constexpr (RecordBlock<V>::kPod) {
    enc.WritePodSpan(block.lids.data(), block.lids.size());
    enc.WritePodSpan(block.values.data(), block.values.size());
  } else {
    for (size_t k = 0; k < block.size(); ++k) {
      enc.WriteU32(block.lids[k]);
      EncodeValue(enc, *block.values[k]);
    }
  }
}

/// Same wire format, but over owned values (the coordinator's aggregated
/// batches own their merged values rather than pointing into a store).
template <typename V>
void EncodeOwnedRecords(Encoder& enc, const std::vector<uint32_t>& lids,
                        const std::vector<V>& values) {
  enc.WriteVarint(lids.size());
  if constexpr (kHasPodWireFormat<V>) {
    enc.WritePodSpan(lids.data(), lids.size());
    enc.WritePodSpan(values.data(), values.size());
  } else {
    for (size_t k = 0; k < lids.size(); ++k) {
      enc.WriteU32(lids[k]);
      EncodeValue(enc, values[k]);
    }
  }
}

/// Decodes one record block into reusable scratch vectors (resized, not
/// reallocated once capacities stabilize). Always produces owned values.
template <typename V>
Status DecodeRecordBlock(Decoder& dec, std::vector<uint32_t>* lids,
                         std::vector<V>* values) {
  uint64_t count = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&count));
  if constexpr (kHasPodWireFormat<V>) {
    if (count > dec.Remaining() / (sizeof(uint32_t) + sizeof(V))) {
      return Status::Corruption("record block extends past end of buffer");
    }
    lids->resize(count);
    values->resize(count);
    GRAPE_RETURN_NOT_OK(dec.ReadPodSpan(lids->data(), count));
    return dec.ReadPodSpan(values->data(), count);
  } else {
    // Every record carries at least its 4-byte lid, so a count beyond
    // Remaining()/4 is corrupt; check before reserve() can throw.
    if (count > dec.Remaining() / sizeof(uint32_t)) {
      return Status::Corruption("record block extends past end of buffer");
    }
    lids->clear();
    values->clear();
    lids->reserve(count);
    values->reserve(count);
    for (uint64_t k = 0; k < count; ++k) {
      uint32_t lid = 0;
      V value{};
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&lid));
      GRAPE_RETURN_NOT_OK(DecodeValue(dec, &value));
      lids->push_back(lid);
      values->push_back(std::move(value));
    }
    return Status::OK();
  }
}

}  // namespace grape

#endif  // GRAPE_CORE_CODEC_H_
