// Round-trip fuzzing for the wire codec under the transport: random
// (dst_lid, value) record blocks encode → frame → decode bit-identically,
// across the POD fast path (two memcpy spans) and the generic per-record
// path, including the zero-record and maximum-size blocks the tcp
// transport can legally carry. Also drives the corruption paths: truncated
// frames and oversized counts must surface as Status, never as UB —
// including the workers' mirror-placement frames.

#include <cstring>
#include <string>
#include <vector>

#include "core/codec.h"
#include "gtest/gtest.h"
#include "rt/remote_worker.h"
#include "util/random.h"
#include "util/serializer.h"

namespace grape {
namespace {

/// Encodes a staged block the way FlushWorker does, wraps it in a frame the
/// way TcpTransport does, then parses both layers back.
template <typename V>
void RoundTripThroughFrame(const std::vector<uint32_t>& lids,
                           const std::vector<V>& values, uint32_t from,
                           uint32_t to, uint32_t tag) {
  ASSERT_EQ(lids.size(), values.size());
  RecordBlock<V> block;
  for (size_t k = 0; k < lids.size(); ++k) block.Append(lids[k], values[k]);

  Encoder enc;
  EncodeRecordBlock(enc, block);
  std::vector<uint8_t> payload = enc.TakeBuffer();

  // Frame layer: header + payload, the tcp transport's wire unit.
  std::vector<uint8_t> wire(kFrameHeaderBytes + payload.size());
  FrameHeader h{from, to, tag, static_cast<uint32_t>(payload.size())};
  EncodeFrameHeader(h, wire.data());
  std::memcpy(wire.data() + kFrameHeaderBytes, payload.data(),
              payload.size());

  FrameHeader parsed;
  ASSERT_TRUE(DecodeFrameHeader(wire.data(), wire.size(), &parsed).ok());
  EXPECT_EQ(parsed.from, from);
  EXPECT_EQ(parsed.to, to);
  EXPECT_EQ(parsed.tag, tag);
  ASSERT_EQ(parsed.payload_len, payload.size());

  Decoder dec(wire.data() + kFrameHeaderBytes, parsed.payload_len);
  std::vector<uint32_t> got_lids;
  std::vector<V> got_values;
  ASSERT_TRUE(DecodeRecordBlock(dec, &got_lids, &got_values).ok());
  EXPECT_TRUE(dec.AtEnd()) << "decoder left trailing bytes";
  EXPECT_EQ(got_lids, lids);
  EXPECT_EQ(got_values, values);
}

TEST(CodecFuzzTest, RandomPodBatchesRoundTrip) {
  Rng rng(0xfeedULL);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t n = rng.NextBounded(512);
    std::vector<uint32_t> lids(n);
    std::vector<double> values(n);
    for (size_t k = 0; k < n; ++k) {
      lids[k] = static_cast<uint32_t>(rng.NextUint64());
      // Raw bit patterns, including ones that look like NaN/inf: the wire
      // must carry bits, not numbers.
      uint64_t bits = rng.NextUint64();
      std::memcpy(&values[k], &bits, sizeof(bits));
    }
    std::vector<double> sent = values;
    RecordBlock<double> block;
    for (size_t k = 0; k < n; ++k) block.Append(lids[k], values[k]);
    Encoder enc;
    EncodeRecordBlock(enc, block);
    Decoder dec(enc.buffer());
    std::vector<uint32_t> got_lids;
    std::vector<double> got_values;
    ASSERT_TRUE(DecodeRecordBlock(dec, &got_lids, &got_values).ok());
    EXPECT_EQ(got_lids, lids);
    // Bit-compare, not ==, so NaN patterns count as equal.
    ASSERT_EQ(got_values.size(), sent.size());
    EXPECT_EQ(std::memcmp(got_values.data(), sent.data(),
                          sent.size() * sizeof(double)),
              0);
  }
}

TEST(CodecFuzzTest, RandomIntBatchesRoundTripThroughFrames) {
  Rng rng(0xabcdULL);
  for (int iter = 0; iter < 100; ++iter) {
    const size_t n = rng.NextBounded(256);
    std::vector<uint32_t> lids(n);
    std::vector<uint32_t> values(n);
    for (size_t k = 0; k < n; ++k) {
      lids[k] = static_cast<uint32_t>(rng.NextUint64());
      values[k] = static_cast<uint32_t>(rng.NextUint64());
    }
    RoundTripThroughFrame(lids, values,
                          static_cast<uint32_t>(rng.NextBounded(16)),
                          static_cast<uint32_t>(rng.NextBounded(16)),
                          static_cast<uint32_t>(rng.NextBounded(8)));
  }
}

TEST(CodecFuzzTest, NonPodValuesRoundTripThroughFrames) {
  // Pairs route through the generic per-record encoder (staged by
  // pointer), the path non-arithmetic apps use.
  Rng rng(0x1717ULL);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t n = rng.NextBounded(64);
    std::vector<uint32_t> lids(n);
    std::vector<std::pair<uint32_t, double>> values(n);
    for (size_t k = 0; k < n; ++k) {
      lids[k] = static_cast<uint32_t>(rng.NextUint64());
      values[k] = {static_cast<uint32_t>(rng.NextUint64()),
                   rng.NextDouble()};
    }
    RoundTripThroughFrame(lids, values, 1, 2, 3);
  }
}

TEST(CodecFuzzTest, ZeroRecordBlockRoundTrips) {
  RoundTripThroughFrame<double>({}, {}, 0, 1, kFrameHeaderBytes);
  // And with a zero-length payload framed directly.
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameHeader{3, 4, 5, 0}, header);
  FrameHeader parsed;
  ASSERT_TRUE(DecodeFrameHeader(header, sizeof(header), &parsed).ok());
  EXPECT_EQ(parsed.payload_len, 0u);
}

TEST(CodecFuzzTest, MaxSizeBlockRoundTrips) {
  // The largest batch a real superstep could plausibly stage: every lid of
  // a large fragment. 1M records = 12 MB encoded, above the tcp
  // relay's chunk size, so this also sizes the conformance large-payload
  // case honestly.
  const size_t n = 1u << 20;
  std::vector<uint32_t> lids(n);
  std::vector<double> values(n);
  for (size_t k = 0; k < n; ++k) {
    lids[k] = static_cast<uint32_t>(k);
    values[k] = static_cast<double>(k) * 0.5;
  }
  RoundTripThroughFrame(lids, values, 2, 7, 1);
}

TEST(CodecFuzzTest, TruncatedBuffersSurfaceAsStatusEverywhere) {
  // Build one valid payload, then decode every proper prefix: all must
  // fail cleanly (or succeed only at full length) — never crash.
  const size_t n = 17;
  RecordBlock<double> block;
  for (size_t k = 0; k < n; ++k) {
    block.Append(static_cast<uint32_t>(k), 1.5 * static_cast<double>(k));
  }
  Encoder enc;
  EncodeRecordBlock(enc, block);
  const std::vector<uint8_t>& full = enc.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Decoder dec(full.data(), cut);
    std::vector<uint32_t> lids;
    std::vector<double> values;
    Status s = DecodeRecordBlock(dec, &lids, &values);
    EXPECT_FALSE(s.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(CodecFuzzTest, CorruptCountsAreRejectedBeforeAllocating) {
  // varint count far beyond the buffer: must return Corruption without
  // attempting a gigantic reserve.
  Encoder enc;
  enc.WriteVarint(uint64_t{1} << 40);
  enc.WriteU32(1);
  {
    Decoder dec(enc.buffer());
    std::vector<uint32_t> lids;
    std::vector<double> values;
    EXPECT_TRUE(DecodeRecordBlock(dec, &lids, &values).IsCorruption());
  }
  {
    Decoder dec(enc.buffer());
    std::vector<uint32_t> lids;
    std::vector<std::string> values;  // non-POD path
    EXPECT_TRUE(DecodeRecordBlock(dec, &lids, &values).IsCorruption());
  }
}

TEST(CodecFuzzTest, MirrorFramesRoundTripAndRejectOverlongCounts) {
  const std::vector<MirrorLidEntry> answers = {{7, 3}, {1u << 31, 0}, {9, 12}};
  Encoder enc;
  EncodeMirrorAnswers(enc, answers);
  {
    Decoder dec(enc.buffer());
    std::vector<MirrorLidEntry> back;
    ASSERT_TRUE(DecodeMirrorAnswers(dec, &back).ok());
    ASSERT_EQ(back.size(), answers.size());
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(back[i].gid, answers[i].gid);
      EXPECT_EQ(back[i].lid, answers[i].lid);
    }
    EXPECT_EQ(dec.Remaining(), 0u);
  }
  // A count one past what the bytes hold, and one far beyond any buffer:
  // Corruption, without sizing a vector from the wire count.
  for (uint64_t count : {uint64_t{answers.size() + 1}, uint64_t{1} << 40}) {
    Encoder bad;
    bad.WriteVarint(count);
    for (const MirrorLidEntry& e : answers) bad.WriteU32(e.gid);
    for (const MirrorLidEntry& e : answers) bad.WriteU32(e.lid);
    Decoder dec(bad.buffer());
    std::vector<MirrorLidEntry> back;
    EXPECT_TRUE(DecodeMirrorAnswers(dec, &back).IsCorruption()) << count;
    EXPECT_TRUE(back.empty()) << count;
  }
}

TEST(CodecFuzzTest, FrameHeaderRejectsTruncationAndAbsurdLengths) {
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameHeader{1, 2, 3, 4}, header);
  FrameHeader parsed;
  for (size_t cut = 0; cut < kFrameHeaderBytes; ++cut) {
    EXPECT_TRUE(DecodeFrameHeader(header, cut, &parsed).IsCorruption());
  }
  EncodeFrameHeader(FrameHeader{1, 2, 3, kMaxFramePayloadBytes + 1}, header);
  EXPECT_TRUE(
      DecodeFrameHeader(header, sizeof(header), &parsed).IsCorruption());
}

TEST(CodecFuzzTest, FrameHeaderIsExactlySixteenLittleEndianBytes) {
  // The 16-byte envelope is load-bearing: CommStats charges it per
  // message, and the golden test equates counted bytes with tcp wire
  // bytes. Freeze the layout.
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameHeader{0x04030201u, 0x08070605u, 0x0c0b0a09u,
                                0x100f0e0du},
                    header);
  const uint8_t expected[kFrameHeaderBytes] = {
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
      0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10};
  EXPECT_EQ(std::memcmp(header, expected, sizeof(header)), 0);
}

}  // namespace
}  // namespace grape
