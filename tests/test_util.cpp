#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/bitstream.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/varint.hpp"

namespace acex {
namespace {

// ---------------------------------------------------------------- varint

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  0xFFFFFFFFull,
                                  0xFFFFFFFFFFFFFFFFull};
  for (const auto v : values) {
    Bytes buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v));
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(buf, &pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, SequentialDecodingAdvancesPosition) {
  Bytes buf;
  put_varint(buf, 300);
  put_varint(buf, 5);
  put_varint(buf, 1ull << 40);
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(buf, &pos), 300u);
  EXPECT_EQ(get_varint(buf, &pos), 5u);
  EXPECT_EQ(get_varint(buf, &pos), 1ull << 40);
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, ThrowsOnTruncation) {
  Bytes buf;
  put_varint(buf, 1ull << 40);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, &pos), DecodeError);
}

TEST(Varint, ThrowsOnOverlongEncoding) {
  Bytes buf(11, 0x80);  // never terminates within 64 bits
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, &pos), DecodeError);
}

TEST(Varint, ThrowsOnEmptyInput) {
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(Bytes{}, &pos), DecodeError);
}

// -------------------------------------------------------------- bitstream

TEST(BitStream, SingleBitsRoundTrip) {
  BitWriter w;
  const bool bits[] = {true, false, true, true, false, false, true};
  for (const bool b : bits) w.write_bit(b);
  const Bytes buf = w.take();
  BitReader r(buf);
  for (const bool b : bits) EXPECT_EQ(r.read_bit(), b);
}

TEST(BitStream, MultiBitFieldsRoundTrip) {
  BitWriter w;
  w.write(0x5, 3);
  w.write(0x1234, 16);
  w.write(0x1FFFFF, 21);
  w.write(1, 1);
  const Bytes buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(r.read(3), 0x5u);
  EXPECT_EQ(r.read(16), 0x1234u);
  EXPECT_EQ(r.read(21), 0x1FFFFFu);
  EXPECT_EQ(r.read(1), 1u);
}

TEST(BitStream, MaxWidthFieldRoundTrips) {
  BitWriter w;
  const std::uint64_t v = 0x1ABCDEF012345ull;  // fits in 57 bits
  w.write(v, 57);
  const Bytes buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(r.read(57), v);
}

TEST(BitStream, AlignToBytePadsWithZeros) {
  BitWriter w;
  w.write(0x7, 3);
  w.align_to_byte();
  w.write(0xFF, 8);
  const Bytes buf = w.take();
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0xE0);
  EXPECT_EQ(buf[1], 0xFF);
}

TEST(BitStream, PeekDoesNotConsume) {
  BitWriter w;
  w.write(0xAB, 8);
  const Bytes buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(r.peek(4), 0xAu);
  EXPECT_EQ(r.peek(8), 0xABu);
  EXPECT_EQ(r.read(8), 0xABu);
}

TEST(BitStream, PeekZeroFillsPastEnd) {
  const Bytes buf = {0xF0};
  BitReader r(buf);
  EXPECT_EQ(r.peek(16), 0xF000u);
}

TEST(BitStream, ReadPastEndThrows) {
  const Bytes buf = {0xFF};
  BitReader r(buf);
  r.read(8);
  EXPECT_THROW(r.read(1), DecodeError);
}

TEST(BitStream, SkipPastEndThrows) {
  const Bytes buf = {0xFF};
  BitReader r(buf);
  EXPECT_THROW(r.skip(9), DecodeError);
}

TEST(BitStream, SeekRepositionsReader) {
  BitWriter w;
  w.write(0xDEAD, 16);
  const Bytes buf = w.take();
  BitReader r(buf);
  r.seek(8);
  EXPECT_EQ(r.read(8), 0xADu);
  EXPECT_THROW(r.seek(17), DecodeError);
}

TEST(BitStream, RandomizedRoundTrip) {
  Rng rng(42);
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng.below(57));
    const std::uint64_t value =
        rng() & ((width == 64) ? ~0ull : ((1ull << width) - 1));
    fields.emplace_back(value, width);
    w.write(value, width);
  }
  const Bytes buf = w.take();
  BitReader r(buf);
  for (const auto& [value, width] : fields) {
    ASSERT_EQ(r.read(width), value);
  }
}

TEST(BitStream, BitCountTracksWrites) {
  BitWriter w;
  w.write(1, 3);
  w.write(0, 10);
  EXPECT_EQ(w.bit_count(), 13u);
}

// ------------------------------------------------------------------ crc32

TEST(Crc32, MatchesKnownVector) {
  // The canonical IEEE CRC-32 of "123456789".
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32(Bytes{}), 0u); }

TEST(Crc32, IncrementalEqualsOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  Crc32 inc;
  inc.update(ByteView(data).subspan(0, 10));
  inc.update(ByteView(data).subspan(10));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data = to_bytes("sensitive payload");
  const std::uint32_t before = crc32(data);
  data[3] ^= 0x10;
  EXPECT_NE(crc32(data), before);
}

/// Bit-at-a-time CRC-32 straight from the reflected polynomial: no tables,
/// so it shares nothing with the table-driven implementation it checks.
std::uint32_t reference_crc32(ByteView data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(2004);
  const Bytes buffer = rng.bytes(1024 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const ByteView data = ByteView(buffer).subspan(offset, len);
      const std::uint32_t want = reference_crc32(data);
      ASSERT_EQ(crc32(data), want) << "offset " << offset << " len " << len;
      // Split updates must fold to the same state wherever the cut falls;
      // cuts on and beside 8-byte boundaries guard word-at-a-time loops.
      for (const std::size_t cut :
           {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{8},
            std::size_t{13}, len / 2, len - std::min<std::size_t>(len, 5)}) {
        if (cut > len) continue;
        Crc32 inc;
        inc.update(data.subspan(0, cut));
        inc.update(data.subspan(cut, (len - cut) / 2));
        inc.update(data.subspan(cut + (len - cut) / 2));
        ASSERT_EQ(inc.value(), want)
            << "offset " << offset << " len " << len << " cut " << cut;
      }
    }
  }
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(5);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.below(8)];
  for (const int c : seen) EXPECT_GT(c, 300);  // roughly uniform
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, BytesProducesRequestedLength) {
  Rng rng(17);
  EXPECT_EQ(rng.bytes(0).size(), 0u);
  EXPECT_EQ(rng.bytes(7).size(), 7u);
  EXPECT_EQ(rng.bytes(4096).size(), 4096u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

// ------------------------------------------------------------------ stats

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_NEAR(s.stddev_percent(), 40.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Ewma, FirstSampleSeedsValue) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  EXPECT_DOUBLE_EQ(e.value_or(42.0), 42.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value_or(0.0), 10.0);
}

TEST(Ewma, SmoothsTowardNewSamples) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value_or(0.0), 5.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value_or(0.0), 7.5);
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), ConfigError);
  EXPECT_THROW(Ewma(1.5), ConfigError);
}

TEST(SlidingWindow, EvictsOldestBeyondCapacity) {
  SlidingWindow w(3);
  w.add(1);
  w.add(2);
  w.add(3);
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);  // {2,3,10}
}

TEST(SlidingWindow, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindow(0), ConfigError);
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.1);
}

TEST(Histogram, OutOfRangeGoesToOverflowBuckets) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.total(), 2u);
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    EXPECT_EQ(h.count_at(i), 0u);
  }
}

// ------------------------------------------------------------------ clock

TEST(VirtualClock, AdvancesMonotonically) {
  VirtualClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance(-3.0);  // ignored
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(1.0);  // ignored: in the past
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(4.0);
  EXPECT_DOUBLE_EQ(c.now(), 4.0);
}

TEST(VirtualClock, StopwatchMeasuresVirtualTime) {
  VirtualClock c;
  Stopwatch sw(c);
  c.advance(2.0);
  EXPECT_DOUBLE_EQ(sw.elapsed(), 2.0);
  sw.restart();
  EXPECT_DOUBLE_EQ(sw.elapsed(), 0.0);
}

TEST(MonotonicClock, NeverGoesBackwards) {
  MonotonicClock c;
  const Seconds a = c.now();
  const Seconds b = c.now();
  EXPECT_GE(b, a);
}

// ------------------------------------------------------------------ bytes

TEST(BytesHelpers, StringRoundTrip) {
  const std::string s = "hello \x01\x02";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(BytesHelpers, HexdumpTruncates) {
  const Bytes data(100, 0xAB);
  const std::string dump = hexdump(data, 4);
  EXPECT_NE(dump.find("ab ab ab ab"), std::string::npos);
  EXPECT_NE(dump.find("..."), std::string::npos);
}

TEST(BytesHelpers, FormatSize) {
  EXPECT_EQ(format_size(512), "512 B");
  EXPECT_EQ(format_size(128 * 1024), "128.0 KiB");
  EXPECT_EQ(format_size(3 * 1024 * 1024), "3.0 MiB");
}

}  // namespace
}  // namespace acex
