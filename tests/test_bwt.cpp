#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "compress/bwt.hpp"
#include "compress/bwt_codec.hpp"
#include "compress/lz77.hpp"
#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "testdata.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"
#include "workloads/transactions.hpp"

namespace acex {
namespace {

/// Reference forward transform: the original modulo prefix doubling, kept
/// verbatim so the production sort can be checked against it bit for bit.
/// Equal rotations must come out in the same order, which this sequence of
/// stable counting sorts fixes.
bwt::Transformed reference_forward(ByteView block) {
  const std::size_t n = block.size();
  bwt::Transformed result;
  if (n == 0) return result;
  if (n == 1) {
    result.last_column.assign(block.begin(), block.end());
    return result;
  }
  std::vector<std::uint32_t> idx(n), rank(n), next_rank(n), shifted(n);
  std::vector<std::uint32_t> counts(std::max<std::size_t>(n, 256) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[block[i] + 1];
  for (std::size_t c = 1; c <= 256; ++c) counts[c] += counts[c - 1];
  for (std::size_t i = 0; i < n; ++i) {
    idx[counts[block[i]]++] = static_cast<std::uint32_t>(i);
  }
  rank[idx[0]] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    rank[idx[i]] = rank[idx[i - 1]] + (block[idx[i]] != block[idx[i - 1]]);
  }
  for (std::size_t k = 1; rank[idx[n - 1]] != n - 1 && k < n; k <<= 1) {
    for (std::size_t j = 0; j < n; ++j) {
      shifted[j] = (idx[j] + static_cast<std::uint32_t>(n) -
                    static_cast<std::uint32_t>(k % n)) %
                   static_cast<std::uint32_t>(n);
    }
    const std::size_t classes = rank[idx[n - 1]] + 1;
    std::fill(counts.begin(), counts.begin() + classes + 1, 0u);
    for (std::size_t i = 0; i < n; ++i) ++counts[rank[i] + 1];
    for (std::size_t c = 1; c <= classes; ++c) counts[c] += counts[c - 1];
    for (std::size_t j = 0; j < n; ++j) {
      idx[counts[rank[shifted[j]]]++] = shifted[j];
    }
    const auto second = [&](std::uint32_t i) { return rank[(i + k) % n]; };
    next_rank[idx[0]] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const bool differs = rank[idx[i]] != rank[idx[i - 1]] ||
                           second(idx[i]) != second(idx[i - 1]);
      next_rank[idx[i]] = next_rank[idx[i - 1]] + differs;
    }
    rank.swap(next_rank);
  }
  result.last_column.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t start = idx[i];
    result.last_column[i] = block[start == 0 ? n - 1 : start - 1];
    if (start == 0) result.primary = static_cast<std::uint32_t>(i);
  }
  return result;
}

/// Asserts `bwt::forward` matches the reference exactly on `block`.
void expect_matches_reference(const Bytes& block, const std::string& what) {
  const auto got = bwt::forward(block);
  const auto want = reference_forward(block);
  EXPECT_EQ(got.primary, want.primary) << what;
  EXPECT_TRUE(got.last_column == want.last_column) << what;
}

// -------------------------------------------------------------- transform

TEST(BwtTransform, KnownVectorBanana) {
  // Classic example: cyclic BWT of "banana".
  const Bytes data = to_bytes("banana");
  const auto t = bwt::forward(data);
  EXPECT_EQ(bwt::inverse(t.last_column, t.primary), data);
  EXPECT_EQ(to_string(t.last_column), "nnbaaa");
}

TEST(BwtTransform, GroupsEqualContexts) {
  // BWT of repetitive text concentrates equal characters.
  const Bytes data = testdata::repetitive_text(4096, 1);
  const auto t = bwt::forward(data);
  std::size_t adjacent_equal = 0;
  for (std::size_t i = 1; i < t.last_column.size(); ++i) {
    adjacent_equal += t.last_column[i] == t.last_column[i - 1];
  }
  std::size_t baseline = 0;
  for (std::size_t i = 1; i < data.size(); ++i) {
    baseline += data[i] == data[i - 1];
  }
  EXPECT_GT(adjacent_equal, baseline * 2);
}

TEST(BwtTransform, EmptyAndSingle) {
  EXPECT_TRUE(bwt::forward(Bytes{}).last_column.empty());
  const Bytes one = {0x7F};
  const auto t = bwt::forward(one);
  EXPECT_EQ(bwt::inverse(t.last_column, t.primary), one);
}

TEST(BwtTransform, RoundTripsAllPatterns) {
  for (const auto& pattern : testdata::patterns()) {
    for (const std::size_t size : {2u, 3u, 64u, 1000u, 4097u}) {
      const Bytes data = pattern.make(size, 21);
      const auto t = bwt::forward(data);
      EXPECT_EQ(bwt::inverse(t.last_column, t.primary), data)
          << pattern.name << " size=" << size;
    }
  }
}

TEST(BwtTransform, PeriodicInputsRoundTrip) {
  // Identical rotations are the degenerate case of the rotation sort.
  for (const std::string s :
       {"aaaa", "abab", "abcabc", "xyxyxyxyxyxy", "aabaab"}) {
    const Bytes data = to_bytes(s);
    const auto t = bwt::forward(data);
    EXPECT_EQ(bwt::inverse(t.last_column, t.primary), data) << s;
  }
}

TEST(BwtTransform, MatchesReferenceOnAllPatterns) {
  for (const auto& pattern : testdata::patterns()) {
    for (const std::size_t size :
         {2u, 3u, 64u, 1000u, 4097u, 16384u, 65536u}) {
      expect_matches_reference(pattern.make(size, 21),
                               std::string(pattern.name) +
                                   " size=" + std::to_string(size));
    }
  }
}

TEST(BwtTransform, MatchesReferenceOnRandomSmallAlphabets) {
  Rng rng(1313);
  for (const unsigned alphabet : {1u, 2u, 3u, 256u}) {
    for (int trial = 0; trial < 400; ++trial) {
      Bytes block(rng.below(300));
      for (auto& b : block) b = static_cast<std::uint8_t>(rng.below(alphabet));
      expect_matches_reference(block, "alphabet=" + std::to_string(alphabet) +
                                          " n=" +
                                          std::to_string(block.size()));
    }
  }
}

TEST(BwtTransform, MatchesReferenceOnExactlyPeriodicBlocks) {
  // Periodic blocks are where equal rotations exist, so they pin the order
  // among ties. Two primitive units per period: distinct bytes, and a run
  // "aa...ab" whose rotations share long prefixes.
  for (const std::size_t period : {1u, 2u, 3u, 5u, 7u, 64u}) {
    Bytes distinct(period), run(period, 'a');
    for (std::size_t i = 0; i < period; ++i) {
      distinct[i] = static_cast<std::uint8_t>((i * 37 + 11) % 256);
    }
    run.back() = 'b';
    for (const std::size_t repeats : {2u, 3u, 4u, 5u, 8u, 9u, 100u}) {
      for (const Bytes* unit : {&distinct, &run}) {
        Bytes block;
        for (std::size_t r = 0; r < repeats; ++r) {
          block.insert(block.end(), unit->begin(), unit->end());
        }
        expect_matches_reference(block,
                                 "period=" + std::to_string(period) +
                                     " repeats=" + std::to_string(repeats) +
                                     (unit == &run ? " run" : " distinct"));
      }
    }
  }
}

TEST(BwtTransform, MatchesReferenceOnAllZeroBlock) {
  expect_matches_reference(Bytes(128 * 1024, 0), "zeros 128K");
}

TEST(BwtTransform, InverseRejectsBadPrimary) {
  const Bytes col = to_bytes("nnbaaa");
  EXPECT_THROW(bwt::inverse(col, 6), DecodeError);
}

// -------------------------------------------------------------------- mtf

TEST(Mtf, KnownSequence) {
  // 'a' (97) first costs 97, immediately repeating costs 0.
  const Bytes data = to_bytes("aab");
  const Bytes coded = mtf::encode(data);
  ASSERT_EQ(coded.size(), 3u);
  EXPECT_EQ(coded[0], 97);
  EXPECT_EQ(coded[1], 0);
  EXPECT_EQ(mtf::decode(coded), data);
}

TEST(Mtf, RoundTripsAllPatterns) {
  for (const auto& pattern : testdata::patterns()) {
    const Bytes data = pattern.make(5000, 2);
    EXPECT_EQ(mtf::decode(mtf::encode(data)), data) << pattern.name;
  }
}

TEST(Mtf, LocalizedDataBecomesSmallValues) {
  const Bytes data = testdata::long_runs(10000, 3);
  const Bytes coded = mtf::encode(data);
  std::size_t small = 0;
  for (const auto b : coded) small += b < 4;
  EXPECT_GT(small, coded.size() * 9 / 10);
}

TEST(Mtf, EmptyInput) { EXPECT_TRUE(mtf::encode(Bytes{}).empty()); }

// -------------------------------------------------------------------- rle

TEST(Rle, OutputNeverContainsSentinel) {
  for (const auto& pattern : testdata::patterns()) {
    const Bytes data = pattern.make(8000, 4);
    const Bytes coded = rle::encode(data);
    for (const auto b : coded) {
      ASSERT_NE(b, rle::kSentinel) << pattern.name;
    }
    EXPECT_EQ(rle::decode(coded), data) << pattern.name;
  }
}

TEST(Rle, CompressesLongRuns) {
  const Bytes data(10000, 3);
  const Bytes coded = rle::encode(data);
  EXPECT_LT(coded.size(), 250u);
  EXPECT_EQ(rle::decode(coded), data);
}

TEST(Rle, RunOfSentinelBytesRoundTrips) {
  const Bytes data(1000, 255);
  const Bytes coded = rle::encode(data);
  for (const auto b : coded) ASSERT_NE(b, rle::kSentinel);
  EXPECT_EQ(rle::decode(coded), data);
}

TEST(Rle, RunOfEscapeBytesRoundTrips) {
  const Bytes data(1000, 254);
  EXPECT_EQ(rle::decode(rle::encode(data)), data);
}

TEST(Rle, ExactlyFourRepeatsGetCountByte) {
  const Bytes data = {9, 9, 9, 9};
  const Bytes coded = rle::encode(data);
  ASSERT_EQ(coded.size(), 5u);  // 4 bytes + count 0
  EXPECT_EQ(coded[4], 0);
  EXPECT_EQ(rle::decode(coded), data);
}

TEST(Rle, ThreeRepeatsStayRaw) {
  const Bytes data = {9, 9, 9};
  EXPECT_EQ(rle::encode(data), data);
  EXPECT_EQ(rle::decode(data), data);
}

TEST(Rle, RunCapRespectsPaperLimit) {
  // A unit covers at most kRunTrigger + kMaxExtra = 254 source bytes.
  const Bytes data(254, 1);
  const Bytes coded = rle::encode(data);
  ASSERT_EQ(coded.size(), 5u);
  EXPECT_EQ(coded[4], rle::kMaxExtra);
  EXPECT_EQ(rle::decode(coded), data);
}

TEST(Rle, DecodeRejectsPayloadSentinel) {
  const Bytes bad = {1, 2, 255};
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

TEST(Rle, DecodeRejectsTruncatedEscape) {
  const Bytes bad = {254};
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

TEST(Rle, DecodeRejectsInvalidEscapePayload) {
  const Bytes bad = {254, 7};
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

TEST(Rle, DecodeRejectsTruncatedRunCount) {
  const Bytes bad = {5, 5, 5, 5};  // count byte missing
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

TEST(Rle, DecodeRejectsOversizedRunCount) {
  const Bytes bad = {5, 5, 5, 5, 253};  // count > kMaxExtra
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

// ------------------------------------------------------------ whole codec

TEST(BurrowsWheelerCodec, RoundTripsAllPatterns) {
  BurrowsWheelerCodec codec(4096);
  for (const auto& pattern : testdata::patterns()) {
    const Bytes data = pattern.make(20000, 5);
    EXPECT_EQ(codec.decompress(codec.compress(data)), data) << pattern.name;
  }
}

TEST(BurrowsWheelerCodec, EmptyInput) {
  BurrowsWheelerCodec codec;
  EXPECT_TRUE(codec.decompress(codec.compress(Bytes{})).empty());
}

TEST(BurrowsWheelerCodec, InputSmallerThanChunk) {
  BurrowsWheelerCodec codec(4096);
  const Bytes data = testdata::repetitive_text(100, 6);
  EXPECT_EQ(codec.decompress(codec.compress(data)), data);
}

TEST(BurrowsWheelerCodec, InputSpanningManyChunks) {
  BurrowsWheelerCodec codec(512);
  const Bytes data = testdata::repetitive_text(10000, 7);
  EXPECT_EQ(codec.decompress(codec.compress(data)), data);
}

TEST(BurrowsWheelerCodec, ExactChunkMultiple) {
  BurrowsWheelerCodec codec(1024);
  const Bytes data = testdata::low_entropy(4096, 8);
  EXPECT_EQ(codec.decompress(codec.compress(data)), data);
}

TEST(BurrowsWheelerCodec, BestRatioOnRepetitiveData) {
  BurrowsWheelerCodec bw(64 * 1024);
  LempelZivCodec lzc;
  const Bytes data = testdata::repetitive_text(256 * 1024, 9);
  EXPECT_LT(bw.compress(data).size(), lzc.compress(data).size());
}

TEST(BurrowsWheelerCodec, StoredModeBoundsExpansion) {
  BurrowsWheelerCodec codec(4096);
  const Bytes data = testdata::random_bytes(16 * 1024, 10);
  const Bytes packed = codec.compress(data);
  EXPECT_LE(packed.size(), data.size() + 16);
  EXPECT_EQ(codec.decompress(packed), data);
}

TEST(BurrowsWheelerCodec, RejectsBadChunkSize) {
  EXPECT_THROW(BurrowsWheelerCodec(16), ConfigError);
  EXPECT_THROW(BurrowsWheelerCodec(4 << 20), ConfigError);
}

TEST(BurrowsWheelerCodec, TruncatedInputThrows) {
  BurrowsWheelerCodec codec(2048);
  Bytes packed = codec.compress(testdata::repetitive_text(8192, 11));
  packed.resize(packed.size() / 2);
  EXPECT_THROW(codec.decompress(packed), DecodeError);
}

TEST(BurrowsWheelerCodec, CorruptionThrowsOrStaysBounded) {
  BurrowsWheelerCodec codec(4096);
  Bytes packed = codec.compress(testdata::repetitive_text(100000, 8));
  packed[packed.size() / 2] ^= 0x40;
  try {
    const Bytes out = codec.decompress(packed);
    EXPECT_LE(out.size(), 200000u);  // garbage tolerated, crash not
  } catch (const Error&) {
    // expected on most corruptions
  }
}

TEST(BurrowsWheelerCodec, WireBytesPinnedOnCommercialBlock) {
  // Any change to the rotation sort, MTF, RLE or the joint Huffman stage
  // that moves a single wire byte shows up here.
  const Bytes block = workloads::TransactionGenerator(2004).text_block(16384);
  const Bytes packed = BurrowsWheelerCodec().compress(block);
  EXPECT_EQ(packed.size(), 3865u);
  EXPECT_EQ(crc32(packed), 0x75CFFEC9u);
}

TEST(BurrowsWheelerCodec, RecoverFromBitFindsTailChunks) {
  // §2.4: a receiver starting mid-stream recovers chunks after the next
  // sentinel. Use text chunks so recovery is deterministic in practice.
  BurrowsWheelerCodec codec(1024);
  const Bytes data = testdata::repetitive_text(8192, 12);
  const Bytes packed = codec.compress(data);

  const auto chunks = codec.recover_from_bit(packed, 0);
  // Starting at bit 0 skips only the first chunk.
  ASSERT_EQ(chunks.size(), 7u);
  Bytes tail;
  for (const auto& c : chunks) tail.insert(tail.end(), c.begin(), c.end());
  const Bytes expected(data.begin() + 1024, data.end());
  EXPECT_EQ(tail, expected);
}

TEST(BurrowsWheelerCodec, RecoverFromMidStreamOffset) {
  BurrowsWheelerCodec codec(1024);
  const Bytes data = testdata::repetitive_text(16384, 13);
  const Bytes packed = codec.compress(data);

  // Jump ~40% into the compressed payload; everything recovered must be a
  // contiguous run of original chunks ending at the final one.
  const auto chunks =
      codec.recover_from_bit(packed, packed.size() * 8 * 2 / 5);
  ASSERT_FALSE(chunks.empty());
  ASSERT_LE(chunks.size(), 16u);
  Bytes tail;
  for (const auto& c : chunks) tail.insert(tail.end(), c.begin(), c.end());
  ASSERT_LE(tail.size(), data.size());
  const Bytes expected(data.end() - static_cast<std::ptrdiff_t>(tail.size()),
                       data.end());
  EXPECT_EQ(tail, expected);
}

TEST(BurrowsWheelerCodec, RecoverRequiresCompressedMode) {
  BurrowsWheelerCodec codec(1024);
  const Bytes packed = codec.compress(testdata::random_bytes(4096, 14));
  EXPECT_THROW(codec.recover_from_bit(packed, 0), DecodeError);
}

}  // namespace
}  // namespace acex
