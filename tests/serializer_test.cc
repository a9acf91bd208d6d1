#include <cstdint>
#include <string>
#include <vector>

#include "core/codec.h"
#include "gtest/gtest.h"
#include "util/serializer.h"

namespace grape {
namespace {

TEST(SerializerTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.WriteU8(7);
  enc.WriteU32(0xdeadbeef);
  enc.WriteU64(0x0123456789abcdefULL);
  enc.WriteI32(-42);
  enc.WriteI64(-1234567890123LL);
  enc.WriteDouble(3.14159);
  enc.WriteFloat(2.5f);
  enc.WriteBool(true);

  Decoder dec(enc.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  double d;
  float f;
  bool b;
  ASSERT_TRUE(dec.ReadU8(&u8).ok());
  ASSERT_TRUE(dec.ReadU32(&u32).ok());
  ASSERT_TRUE(dec.ReadU64(&u64).ok());
  ASSERT_TRUE(dec.ReadI32(&i32).ok());
  ASSERT_TRUE(dec.ReadI64(&i64).ok());
  ASSERT_TRUE(dec.ReadDouble(&d).ok());
  ASSERT_TRUE(dec.ReadFloat(&f).ok());
  ASSERT_TRUE(dec.ReadBool(&b).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeef);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_FLOAT_EQ(f, 2.5f);
  EXPECT_TRUE(b);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(SerializerTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values = {0,       1,        127,       128,
                                  16383,   16384,    (1u << 21) - 1,
                                  1u << 21, UINT32_MAX, UINT64_MAX};
  Encoder enc;
  for (uint64_t v : values) enc.WriteVarint(v);
  Decoder dec(enc.buffer());
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(dec.ReadVarint(&v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(dec.AtEnd());
}

TEST(SerializerTest, VarintEncodingIsCompact) {
  Encoder enc;
  enc.WriteVarint(5);
  EXPECT_EQ(enc.size(), 1u);
  enc.Clear();
  enc.WriteVarint(300);
  EXPECT_EQ(enc.size(), 2u);
}

TEST(SerializerTest, StringRoundTrip) {
  Encoder enc;
  enc.WriteString("hello");
  enc.WriteString("");
  enc.WriteString(std::string(1000, 'x'));
  Decoder dec(enc.buffer());
  std::string a;
  std::string b;
  std::string c;
  ASSERT_TRUE(dec.ReadString(&a).ok());
  ASSERT_TRUE(dec.ReadString(&b).ok());
  ASSERT_TRUE(dec.ReadString(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
}

TEST(SerializerTest, PodVectorRoundTrip) {
  std::vector<uint32_t> in = {1, 2, 3, 0xffffffff};
  // Empty vectors have a null data(); neither side may pass it to memcpy.
  std::vector<uint32_t> empty;
  Encoder enc;
  enc.WritePodVector(in);
  enc.WritePodVector(empty);
  enc.WritePodSpan(empty.data(), 0);
  Decoder dec(enc.buffer());
  std::vector<uint32_t> out;
  ASSERT_TRUE(dec.ReadPodVector(&out).ok());
  EXPECT_EQ(out, in);
  std::vector<uint32_t> out_empty = {7};
  ASSERT_TRUE(dec.ReadPodVector(&out_empty).ok());
  EXPECT_TRUE(out_empty.empty());
  ASSERT_TRUE(dec.ReadPodSpan(out_empty.data(), 0).ok());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(SerializerTest, PodVectorCountPastBufferFails) {
  // 2^62 four-byte elements: the byte count wraps to 0 in 64 bits, so the
  // bounds check must divide, not multiply.
  Encoder enc;
  enc.WriteVarint(uint64_t{1} << 62);
  Decoder dec(enc.buffer());
  std::vector<uint32_t> out;
  EXPECT_TRUE(dec.ReadPodVector(&out).IsCorruption());
  EXPECT_TRUE(out.empty());
}

TEST(SerializerTest, TruncatedReadsFail) {
  Encoder enc;
  enc.WriteU64(12345);
  // Cut the buffer short.
  Decoder dec(enc.buffer().data(), 4);
  uint64_t v = 0;
  EXPECT_TRUE(dec.ReadU64(&v).IsCorruption());
}

TEST(SerializerTest, TruncatedVarintFails) {
  Encoder enc;
  enc.WriteVarint(UINT64_MAX);
  Decoder dec(enc.buffer().data(), 3);
  uint64_t v = 0;
  EXPECT_TRUE(dec.ReadVarint(&v).IsCorruption());
}

TEST(SerializerTest, OverlongVarintFails) {
  // 11 continuation bytes encode more than 64 bits.
  std::vector<uint8_t> bad(11, 0xff);
  Decoder dec(bad);
  uint64_t v = 0;
  EXPECT_TRUE(dec.ReadVarint(&v).IsCorruption());
}

TEST(SerializerTest, TruncatedStringFails) {
  Encoder enc;
  enc.WriteString("hello world");
  Decoder dec(enc.buffer().data(), 5);
  std::string s;
  EXPECT_TRUE(dec.ReadString(&s).IsCorruption());
}

TEST(CodecTest, ArithmeticRoundTrip) {
  Encoder enc;
  EncodeValue(enc, 42);
  EncodeValue(enc, 2.718);
  EncodeValue(enc, static_cast<uint8_t>(9));
  Decoder dec(enc.buffer());
  int i = 0;
  double d = 0;
  uint8_t u = 0;
  ASSERT_TRUE(DecodeValue(dec, &i).ok());
  ASSERT_TRUE(DecodeValue(dec, &d).ok());
  ASSERT_TRUE(DecodeValue(dec, &u).ok());
  EXPECT_EQ(i, 42);
  EXPECT_DOUBLE_EQ(d, 2.718);
  EXPECT_EQ(u, 9);
}

TEST(CodecTest, VectorRoundTrip) {
  std::vector<double> in = {1.0, 2.5, -3.75};
  Encoder enc;
  EncodeValue(enc, in);
  Decoder dec(enc.buffer());
  std::vector<double> out;
  ASSERT_TRUE(DecodeValue(dec, &out).ok());
  EXPECT_EQ(out, in);
}

TEST(CodecTest, NestedVectorRoundTrip) {
  std::vector<std::vector<uint32_t>> in = {{1, 2}, {}, {3, 4, 5}};
  Encoder enc;
  EncodeValue(enc, in);
  Decoder dec(enc.buffer());
  std::vector<std::vector<uint32_t>> out;
  ASSERT_TRUE(DecodeValue(dec, &out).ok());
  EXPECT_EQ(out, in);
}

TEST(CodecTest, PairRoundTrip) {
  std::pair<uint32_t, double> in = {7, 1.5};
  Encoder enc;
  EncodeValue(enc, in);
  Decoder dec(enc.buffer());
  std::pair<uint32_t, double> out;
  ASSERT_TRUE(DecodeValue(dec, &out).ok());
  EXPECT_EQ(out, in);
}

struct CustomValue {
  uint32_t a = 0;
  std::string tag;

  void EncodeTo(Encoder& enc) const {
    enc.WriteU32(a);
    enc.WriteString(tag);
  }
  static Status DecodeFrom(Decoder& dec, CustomValue* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->a));
    return dec.ReadString(&out->tag);
  }
};

TEST(CodecTest, SelfCodableRoundTrip) {
  CustomValue in{99, "grape"};
  Encoder enc;
  EncodeValue(enc, in);
  Decoder dec(enc.buffer());
  CustomValue out;
  ASSERT_TRUE(DecodeValue(dec, &out).ok());
  EXPECT_EQ(out.a, 99u);
  EXPECT_EQ(out.tag, "grape");
}

TEST(CodecTest, TruncatedVectorFails) {
  std::vector<uint64_t> in = {1, 2, 3, 4, 5};
  Encoder enc;
  EncodeValue(enc, in);
  Decoder dec(enc.buffer().data(), enc.size() - 3);
  std::vector<uint64_t> out;
  EXPECT_FALSE(DecodeValue(dec, &out).ok());
}

}  // namespace
}  // namespace grape
