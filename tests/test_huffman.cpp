#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "compress/huffman.hpp"
#include "testdata.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"
#include "workloads/transactions.hpp"

namespace acex {
namespace {

using huff::build_code_lengths;
using huff::canonical_codes;

std::vector<std::uint64_t> freqs_of(ByteView data) {
  std::vector<std::uint64_t> f(256, 0);
  for (const auto b : data) ++f[b];
  return f;
}

// ------------------------------------------------------------ code builder

TEST(HuffmanBuilder, TwoSymbolsGetOneBitEach) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['a'] = 10;
  freqs['b'] = 90;
  const auto lengths = build_code_lengths(freqs);
  EXPECT_EQ(lengths['a'], 1);
  EXPECT_EQ(lengths['b'], 1);
  EXPECT_EQ(lengths['c'], 0);
}

TEST(HuffmanBuilder, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['x'] = 5;
  const auto lengths = build_code_lengths(freqs);
  EXPECT_EQ(lengths['x'], 1);
}

TEST(HuffmanBuilder, EmptyInputYieldsEmptyCode) {
  std::vector<std::uint64_t> freqs(256, 0);
  const auto lengths = build_code_lengths(freqs);
  for (const auto len : lengths) EXPECT_EQ(len, 0);
}

TEST(HuffmanBuilder, RareSymbolsGetLongerCodes) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs[0] = 1000;
  freqs[1] = 100;
  freqs[2] = 10;
  freqs[3] = 1;
  const auto lengths = build_code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[2]);
  EXPECT_LE(lengths[2], lengths[3]);
}

TEST(HuffmanBuilder, RespectsLengthLimit) {
  // Fibonacci-like frequencies force deep trees without a limit.
  std::vector<std::uint64_t> freqs(256, 0);
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs[static_cast<std::size_t>(i)] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = build_code_lengths(freqs);
  for (const auto len : lengths) EXPECT_LE(len, huff::kMaxBits);
  // All 40 symbols must still be coded.
  int coded = 0;
  for (const auto len : lengths) coded += len != 0;
  EXPECT_EQ(coded, 40);
}

TEST(HuffmanBuilder, SatisfiesKraftEquality) {
  std::vector<std::uint64_t> freqs(256, 1);
  const auto lengths = build_code_lengths(freqs);
  double kraft = 0;
  for (const auto len : lengths) {
    if (len != 0) kraft += std::pow(2.0, -static_cast<double>(len));
  }
  EXPECT_NEAR(kraft, 1.0, 1e-9);
}

// --------------------------------------------------------- canonical codes

TEST(HuffmanCanonical, CodesArePrefixFree) {
  std::vector<std::uint8_t> lengths(8, 3);  // 8 symbols, 3 bits each
  const auto codes = canonical_codes(lengths);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    for (std::size_t j = i + 1; j < codes.size(); ++j) {
      EXPECT_NE(codes[i].bits, codes[j].bits);
    }
  }
}

TEST(HuffmanCanonical, ShorterCodesNumericallyPrecede) {
  std::vector<std::uint8_t> lengths = {1, 2, 3, 3};
  const auto codes = canonical_codes(lengths);
  EXPECT_EQ(codes[0].bits, 0b0u);
  EXPECT_EQ(codes[1].bits, 0b10u);
  EXPECT_EQ(codes[2].bits, 0b110u);
  EXPECT_EQ(codes[3].bits, 0b111u);
}

TEST(HuffmanCanonical, RejectsOversubscribedLengths) {
  std::vector<std::uint8_t> lengths = {1, 1, 1};  // Kraft sum 1.5
  EXPECT_THROW(canonical_codes(lengths), DecodeError);
}

TEST(HuffmanCanonical, RejectsLengthsOverLimit) {
  std::vector<std::uint8_t> lengths = {16};
  EXPECT_THROW(canonical_codes(lengths), DecodeError);
}

// -------------------------------------------------------- encoder/decoder

TEST(HuffmanCoder, EncodeDecodeSymbolStream) {
  const Bytes data = testdata::low_entropy(5000, 1);
  const auto freqs = freqs_of(data);
  const auto lengths = build_code_lengths(freqs);

  BitWriter bw;
  const huff::Encoder enc(lengths);
  for (const auto b : data) enc.encode(bw, b);
  const Bytes coded = bw.take();

  BitReader br(coded);
  const huff::Decoder dec(lengths);
  for (const auto b : data) {
    ASSERT_EQ(dec.decode(br), b);
  }
}

TEST(HuffmanCoder, CostBitsMatchesActualOutput) {
  const Bytes data = testdata::repetitive_text(3000, 2);
  const auto freqs = freqs_of(data);
  const auto lengths = build_code_lengths(freqs);
  const huff::Encoder enc(lengths);

  BitWriter bw;
  for (const auto b : data) enc.encode(bw, b);
  EXPECT_EQ(enc.cost_bits(freqs), bw.bit_count());
}

TEST(HuffmanCoder, EncodingUnknownSymbolThrows) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['a'] = 1;
  freqs['b'] = 1;
  const huff::Encoder enc(build_code_lengths(freqs));
  BitWriter bw;
  EXPECT_THROW(enc.encode(bw, 'z'), ConfigError);
}

TEST(HuffmanCoder, LengthHeaderRoundTrips) {
  std::vector<std::uint64_t> freqs(300, 0);
  for (std::size_t i = 0; i < 300; i += 3) freqs[i] = i + 1;
  const auto lengths = build_code_lengths(freqs);
  BitWriter bw;
  huff::write_lengths(bw, lengths);
  const Bytes buf = bw.take();
  BitReader br(buf);
  EXPECT_EQ(huff::read_lengths(br, 300), lengths);
}

// ------------------------------------------------------------ whole codec

TEST(HuffmanCodec, RoundTripsText) {
  HuffmanCodec codec;
  const Bytes data = testdata::repetitive_text(20000, 3);
  EXPECT_EQ(codec.decompress(codec.compress(data)), data);
}

TEST(HuffmanCodec, EmptyInput) {
  HuffmanCodec codec;
  EXPECT_TRUE(codec.decompress(codec.compress(Bytes{})).empty());
}

TEST(HuffmanCodec, OneByteInput) {
  HuffmanCodec codec;
  const Bytes data = {0x42};
  EXPECT_EQ(codec.decompress(codec.compress(data)), data);
}

TEST(HuffmanCodec, CompressesLowEntropyData) {
  HuffmanCodec codec;
  const Bytes data = testdata::low_entropy(64 * 1024, 4);
  const Bytes packed = codec.compress(data);
  EXPECT_LT(packed.size(), data.size() * 3 / 4);
}

TEST(HuffmanCodec, RandomDataBarelyExpands) {
  HuffmanCodec codec;
  const Bytes data = testdata::random_bytes(64 * 1024, 5);
  const Bytes packed = codec.compress(data);
  // Header (128 B) plus ~8 bits/byte payload: bounded small overhead.
  EXPECT_LT(packed.size(), data.size() + 256);
}

TEST(HuffmanCodec, TruncatedStreamThrows) {
  HuffmanCodec codec;
  Bytes packed = codec.compress(testdata::repetitive_text(4096, 6));
  packed.resize(packed.size() / 2);
  EXPECT_THROW(codec.decompress(packed), DecodeError);
}

TEST(HuffmanCodec, WireBytesPinnedOnCommercialBlock) {
  // The same block as the BWT wire pin: a change to the code builder, the
  // canonical codes or the bit packing that moves one wire byte shows here.
  const Bytes block = workloads::TransactionGenerator(2004).text_block(16384);
  const Bytes packed = HuffmanCodec().compress(block);
  EXPECT_EQ(packed.size(), 10316u);
  EXPECT_EQ(crc32(packed), 0x693163C2u);
}

TEST(HuffmanCodec, EmptyBufferThrows) {
  HuffmanCodec codec;
  EXPECT_THROW(codec.decompress(Bytes{}), DecodeError);
}

TEST(HuffmanCodec, ImplausibleSizeHeaderThrows) {
  Bytes bogus;
  put_varint(bogus, 1ull << 50);
  bogus.push_back(0);
  HuffmanCodec codec;
  EXPECT_THROW(codec.decompress(bogus), DecodeError);
}

}  // namespace
}  // namespace acex
