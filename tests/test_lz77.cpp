#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "compress/huffman.hpp"
#include "compress/lz77.hpp"
#include "testdata.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"
#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"

namespace acex {
namespace {

// ------------------------------------------------------- reference matcher

/// Reference hash-chain matcher: the original per-call Matcher (a fresh
/// 32K-entry head table and an input-sized prev table, byte-wise match
/// extension), kept unchanged so the production tokenizer can be checked
/// against it token for token.
class ReferenceMatcher {
 public:
  static constexpr unsigned kHashBits = 15;
  static constexpr std::int32_t kNil = -1;

  ReferenceMatcher(ByteView input, const lz::Params& params)
      : in_(input),
        window_(std::size_t{1} << std::min(params.window_bits, 16u)),
        max_chain_(params.max_chain),
        head_(std::size_t{1} << kHashBits, kNil),
        prev_(input.size(), kNil) {}

  static std::uint32_t hash3(const std::uint8_t* p) noexcept {
    const std::uint32_t v = (static_cast<std::uint32_t>(p[0]) << 16) |
                            (static_cast<std::uint32_t>(p[1]) << 8) | p[2];
    return (v * 2654435761u) >> (32 - kHashBits);
  }

  void insert(std::size_t i) noexcept {
    const std::uint32_t h = hash3(in_.data() + i);
    prev_[i] = head_[h];
    head_[h] = static_cast<std::int32_t>(i);
  }

  lz::Token best(std::size_t i) const noexcept {
    const std::size_t n = in_.size();
    if (i + lz::kMinMatch > n) return {};
    const std::size_t max_len = std::min<std::size_t>(lz::kMaxMatch, n - i);
    const std::size_t lowest = i > window_ ? i - window_ : 0;

    lz::Token bestTok{};
    std::size_t best_len = lz::kMinMatch - 1;
    unsigned chain = max_chain_;
    for (std::int32_t cand = head_[hash3(in_.data() + i)];
         cand != kNil && static_cast<std::size_t>(cand) >= lowest && chain > 0;
         cand = prev_[static_cast<std::size_t>(cand)], --chain) {
      const std::size_t c = static_cast<std::size_t>(cand);
      if (c >= i) continue;
      const std::uint8_t* a = in_.data() + i;
      const std::uint8_t* b = in_.data() + c;
      if (b[best_len] != a[best_len]) continue;
      std::size_t len = 0;
      while (len < max_len && a[len] == b[len]) ++len;
      if (len > best_len) {
        best_len = len;
        bestTok = lz::Token{static_cast<std::uint32_t>(i - c),
                            static_cast<std::uint16_t>(len), 0};
        if (len == max_len) break;
      }
    }
    return bestTok;
  }

 private:
  ByteView in_;
  std::size_t window_;
  unsigned max_chain_;
  std::vector<std::int32_t> head_;
  std::vector<std::int32_t> prev_;
};

/// The original tokenize loop over ReferenceMatcher.
std::vector<lz::Token> reference_tokenize(ByteView input,
                                          const lz::Params& params = {}) {
  std::vector<lz::Token> out;
  const std::size_t n = input.size();
  if (n == 0) return out;
  ReferenceMatcher m(input, params);
  std::size_t i = 0;
  lz::Token prev{};
  bool pending = false;
  while (i < n) {
    lz::Token cur{};
    if (i + lz::kMinMatch <= n) {
      cur = m.best(i);
      m.insert(i);
    }
    if (pending && prev.len >= lz::kMinMatch &&
        (!params.lazy || prev.len >= cur.len)) {
      out.push_back(prev);
      const std::size_t end = i - 1 + prev.len;
      for (std::size_t j = i + 1; j < end && j + lz::kMinMatch <= n; ++j) {
        m.insert(j);
      }
      i = end;
      pending = false;
    } else {
      if (pending) out.push_back(lz::Token{0, 0, input[i - 1]});
      prev = cur;
      pending = true;
      ++i;
    }
  }
  if (pending) out.push_back(lz::Token{0, 0, input[n - 1]});
  return out;
}

/// Asserts `lz::tokenize` emits exactly the reference token stream.
void expect_matches_reference(ByteView input, const lz::Params& params,
                              const std::string& what) {
  const auto got = lz::tokenize(input, params);
  const auto want = reference_tokenize(input, params);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_TRUE(got[k].dist == want[k].dist && got[k].len == want[k].len &&
                got[k].literal == want[k].literal)
        << what << ": token " << k << " is (" << got[k].dist << ", "
        << got[k].len << ", " << int{got[k].literal} << "), want ("
        << want[k].dist << ", " << want[k].len << ", "
        << int{want[k].literal} << ")";
  }
}

Bytes commercial_block(std::size_t size, std::uint64_t seed = 2004) {
  return workloads::TransactionGenerator(seed).text_block(size);
}

Bytes molecular_block(std::size_t size) {
  workloads::MolecularConfig config;
  config.atom_count = 2048;
  Bytes stream = workloads::MolecularGenerator(config).stream(4);
  while (stream.size() < size) {
    stream.insert(stream.end(), stream.begin(), stream.end());
  }
  stream.resize(size);
  return stream;
}

/// The block kinds the differential tests cover, at `size` bytes.
std::vector<std::pair<std::string, Bytes>> block_kinds(std::size_t size) {
  return {
      {"random", testdata::random_bytes(size, 31)},
      {"periodic", testdata::periodic(size, 32)},
      {"zeros", Bytes(size, 0)},
      {"commercial", commercial_block(size)},
      {"molecular", molecular_block(size)},
  };
}

// ---------------------------------------------- byte identity with reference

TEST(Lz77, TokenizeMatchesReferenceOnEveryPattern) {
  for (const auto& pattern : testdata::patterns()) {
    for (const std::size_t size : {std::size_t{5000}, std::size_t{70000}}) {
      const Bytes data = pattern.make(size, 41);
      expect_matches_reference(data, {},
                               std::string(pattern.name) + " " +
                                   std::to_string(size));
    }
  }
}

TEST(Lz77, TokenizeMatchesReferenceOnBlockKindsAndSizes) {
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4096}, std::size_t{65537}, std::size_t{131072}}) {
    for (const auto& [kind, data] : block_kinds(size)) {
      expect_matches_reference(data, {}, kind + " " + std::to_string(size));
    }
  }
}

TEST(Lz77, TokenizeMatchesReferenceWithSmallWindowsAndGreedy) {
  for (const unsigned window_bits : {8u, 12u, 15u, 16u}) {
    for (const bool lazy : {true, false}) {
      lz::Params params;
      params.window_bits = window_bits;
      params.lazy = lazy;
      for (const auto& [kind, data] : block_kinds(65537)) {
        expect_matches_reference(data, params,
                                 kind + " window_bits=" +
                                     std::to_string(window_bits) +
                                     " lazy=" + std::to_string(lazy));
      }
    }
  }
}

TEST(Lz77, MatchAtExactlyTheWindowDistanceIsFound) {
  // A 300-byte random run repeated exactly 65536 bytes later, with random
  // filler between: the only long match sits at the window's far edge.
  // One byte further and it is out of reach.
  for (const std::size_t gap : {std::size_t{65536}, std::size_t{65537}}) {
    const Bytes run = testdata::random_bytes(300, 51);
    Bytes data = run;
    const Bytes filler = testdata::random_bytes(gap - run.size(), 52);
    data.insert(data.end(), filler.begin(), filler.end());
    data.insert(data.end(), run.begin(), run.end());
    expect_matches_reference(data, {}, "gap " + std::to_string(gap));

    bool at_edge = false;
    for (const auto& t : lz::tokenize(data)) {
      EXPECT_LE(t.dist, 65536u);
      at_edge |= t.dist == 65536 && t.len >= 100;
    }
    EXPECT_EQ(at_edge, gap == 65536) << "gap " << gap;
  }
}

TEST(Lz77, ConsecutiveCallsOnOneThreadMatchReference) {
  // The matcher's tables outlive each call. Alternate sizes up and down
  // over overlapping slices of one stream, so a head or link left by call
  // N would point into data that call N + 1 also holds, and show up as a
  // different match.
  const Bytes stream = commercial_block(512 * 1024, 7);
  const std::size_t sizes[] = {131072, 4096, 65537, 3,     16384, 131072,
                               0,      100,  4096,  65536, 2,     131072};
  std::size_t offset = 0;
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t size : sizes) {
      offset = (offset + 12345) % (stream.size() - size);
      const ByteView block = ByteView(stream).subspan(offset, size);
      expect_matches_reference(block, {},
                               "round " + std::to_string(round) + " size " +
                                   std::to_string(size));
    }
  }
}

TEST(Lz77, WireBytesPinnedOnCommercialBlocks) {
  // Any change to the match finder, the length/distance buckets, the two
  // Huffman codes or the bit packing that moves one wire byte shows here.
  LempelZivCodec codec;
  const Bytes small = codec.compress(commercial_block(16384));
  EXPECT_EQ(small.size(), 4478u);
  EXPECT_EQ(crc32(small), 0x771C53E4u);
  const Bytes chunk = codec.compress(commercial_block(131072));
  EXPECT_EQ(chunk.size(), 32375u);
  EXPECT_EQ(crc32(chunk), 0x074B65EAu);
}

TEST(Lz77, ConcurrentCompressMatchesSerial) {
  // Every thread keeps its own matcher tables: four threads compressing
  // different blocks at once must produce exactly the serial bytes.
  std::vector<Bytes> blocks;
  for (const std::size_t size : {std::size_t{4096}, std::size_t{16384},
                                 std::size_t{65537}}) {
    for (auto& [kind, data] : block_kinds(size)) {
      blocks.push_back(std::move(data));
    }
  }
  std::vector<Bytes> serial;
  for (const Bytes& block : blocks) {
    serial.push_back(LempelZivCodec().compress(block));
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LempelZivCodec codec;
      for (int round = 0; round < 4; ++round) {
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          // Each thread walks the blocks from a different starting point.
          const std::size_t b = (k + static_cast<std::size_t>(t) * 4) %
                                blocks.size();
          mismatches[static_cast<std::size_t>(t)] +=
              codec.compress(blocks[b]) != serial[b];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

// -------------------------------------------------------------- tokenizer

TEST(LzTokenizer, LiteralOnlyForShortInput) {
  const Bytes data = to_bytes("ab");
  const auto tokens = lz::tokenize(data);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_TRUE(tokens[0].is_literal());
  EXPECT_TRUE(tokens[1].is_literal());
  EXPECT_EQ(lz::reconstruct(tokens), data);
}

TEST(LzTokenizer, FindsSimpleRepeat) {
  const Bytes data = to_bytes("abcdefabcdef");
  const auto tokens = lz::tokenize(data);
  bool found_match = false;
  for (const auto& t : tokens) {
    if (!t.is_literal()) {
      found_match = true;
      EXPECT_EQ(t.dist, 6u);
      EXPECT_GE(t.len, lz::kMinMatch);
    }
  }
  EXPECT_TRUE(found_match);
  EXPECT_EQ(lz::reconstruct(tokens), data);
}

TEST(LzTokenizer, OverlappingRunMatch) {
  const Bytes data(1000, 'x');
  const auto tokens = lz::tokenize(data);
  EXPECT_LT(tokens.size(), 10u);  // a couple of tokens cover the run
  EXPECT_EQ(lz::reconstruct(tokens), data);
}

TEST(LzTokenizer, TokensCoverInputExactly) {
  for (const auto& pattern : testdata::patterns()) {
    const Bytes data = pattern.make(10000, 77);
    const auto tokens = lz::tokenize(data);
    EXPECT_EQ(lz::reconstruct(tokens), data) << pattern.name;
  }
}

TEST(LzTokenizer, RespectsMaxMatchLength) {
  const Bytes data(4096, 'r');
  for (const auto& t : lz::tokenize(data)) {
    if (!t.is_literal()) {
      EXPECT_LE(t.len, lz::kMaxMatch);
    }
  }
}

TEST(LzTokenizer, GreedyModeStillRoundTrips) {
  lz::Params params;
  params.lazy = false;
  const Bytes data = testdata::repetitive_text(20000, 5);
  EXPECT_EQ(lz::reconstruct(lz::tokenize(data, params)), data);
}

TEST(LzTokenizer, SmallWindowLimitsDistance) {
  lz::Params params;
  params.window_bits = 8;  // 256-byte window
  const Bytes data = testdata::repetitive_text(8192, 6);
  for (const auto& t : lz::tokenize(data, params)) {
    if (!t.is_literal()) {
      EXPECT_LE(t.dist, 256u);
    }
  }
}

TEST(LzTokenizer, LazyMatchingNeverLosesToGreedy) {
  // Lazy matching optimizes encoded size (it may emit MORE tokens while
  // covering the input with longer matches), so compare compressed bytes.
  lz::Params greedy;
  greedy.lazy = false;
  LempelZivCodec lazy_codec;  // default params: lazy
  LempelZivCodec greedy_codec(greedy);
  const Bytes data = testdata::repetitive_text(50000, 7);
  const std::size_t lazy_size = lazy_codec.compress(data).size();
  const std::size_t greedy_size = greedy_codec.compress(data).size();
  EXPECT_LE(lazy_size, greedy_size + greedy_size / 50);
}

TEST(LzReconstruct, RejectsInvalidBackReference) {
  std::vector<lz::Token> tokens = {
      {0, 0, 'a'},
      {5, 3, 0},  // distance 5 with only 1 byte of history
  };
  EXPECT_THROW(lz::reconstruct(tokens), DecodeError);
}

// ---------------------------------------------------------------- buckets

TEST(LzBuckets, LengthBucketsInvertExactly) {
  for (unsigned len = lz::kMinMatch; len <= lz::kMaxMatch; ++len) {
    const auto b = lz::length_bucket(len);
    ASSERT_LT(b.symbol, lz::kLenSymbols);
    unsigned eb = 0;
    const unsigned base = lz::length_base(b.symbol, &eb);
    EXPECT_EQ(eb, b.extra_bits);
    EXPECT_EQ(base + b.extra, len);
  }
}

TEST(LzBuckets, DistanceBucketsInvertExactly) {
  for (std::uint32_t d = 1; d <= 65536; d = d < 128 ? d + 1 : d * 2 - 7) {
    const auto b = lz::distance_bucket(d);
    ASSERT_LT(b.symbol, lz::kDistSymbols);
    unsigned eb = 0;
    const std::uint32_t base = lz::distance_base(b.symbol, &eb);
    EXPECT_EQ(eb, b.extra_bits);
    EXPECT_EQ(base + b.extra, d);
  }
}

TEST(LzBuckets, SmallValuesGetDedicatedSymbols) {
  // §2.3: "both of the numbers tend to be small ... shorter representation
  // for small numbers" — small values must not need extra bits.
  for (unsigned len = 3; len <= 10; ++len) {
    EXPECT_EQ(lz::length_bucket(len).extra_bits, 0u);
  }
  for (std::uint32_t d = 1; d <= 4; ++d) {
    EXPECT_EQ(lz::distance_bucket(d).extra_bits, 0u);
  }
}

TEST(LzBuckets, InvalidSymbolsThrow) {
  unsigned eb = 0;
  EXPECT_THROW(lz::length_base(lz::kLenSymbols, &eb), DecodeError);
  EXPECT_THROW(lz::distance_base(lz::kDistSymbols, &eb), DecodeError);
}

// ------------------------------------------------------------------ codec

TEST(LempelZivCodec, RoundTripsAllPatterns) {
  LempelZivCodec codec;
  for (const auto& pattern : testdata::patterns()) {
    const Bytes data = pattern.make(30000, 11);
    EXPECT_EQ(codec.decompress(codec.compress(data)), data) << pattern.name;
  }
}

TEST(LempelZivCodec, EmptyInput) {
  LempelZivCodec codec;
  EXPECT_TRUE(codec.decompress(codec.compress(Bytes{})).empty());
}

TEST(LempelZivCodec, CompressesRepetitiveTextWell) {
  LempelZivCodec codec;
  const Bytes data = testdata::repetitive_text(128 * 1024, 12);
  EXPECT_LT(codec.compress(data).size(), data.size() / 4);
}

TEST(LempelZivCodec, StoredModeForRandomData) {
  LempelZivCodec codec;
  const Bytes data = testdata::random_bytes(16 * 1024, 13);
  const Bytes packed = codec.compress(data);
  // Stored fallback bounds expansion to the tiny header.
  EXPECT_LE(packed.size(), data.size() + 16);
  EXPECT_EQ(codec.decompress(packed), data);
}

TEST(LempelZivCodec, BeatsHuffmanOnRepetitiveData) {
  LempelZivCodec lzc;
  HuffmanCodec hc;
  const Bytes data = testdata::repetitive_text(64 * 1024, 14);
  EXPECT_LT(lzc.compress(data).size(), hc.compress(data).size());
}

TEST(LempelZivCodec, TruncatedInputThrows) {
  LempelZivCodec codec;
  Bytes packed = codec.compress(testdata::repetitive_text(8192, 15));
  packed.resize(packed.size() / 3);
  EXPECT_THROW(codec.decompress(packed), DecodeError);
}

TEST(LempelZivCodec, CorruptModeByteThrows) {
  LempelZivCodec codec;
  Bytes packed = codec.compress(testdata::repetitive_text(1024, 16));
  std::size_t pos = 0;
  (void)get_varint(packed, &pos);
  packed[pos] = 9;  // invalid mode
  EXPECT_THROW(codec.decompress(packed), DecodeError);
}

TEST(LempelZivCodec, StoredSizeMismatchThrows) {
  LempelZivCodec codec;
  const Bytes data = testdata::random_bytes(512, 17);
  Bytes packed = codec.compress(data);  // stored mode
  packed.push_back(0);                  // trailing junk
  EXPECT_THROW(codec.decompress(packed), DecodeError);
}

TEST(LempelZivCodec, DecodedSizeIsBounded) {
  // A corrupted bitstream must not emit more than the declared size.
  LempelZivCodec codec;
  const Bytes data = testdata::long_runs(4096, 18);
  Bytes packed = codec.compress(data);
  // Flip bits in the payload; decode either throws or yields <= 4096 bytes.
  for (std::size_t i = packed.size() / 2; i < packed.size(); i += 7) {
    Bytes corrupt = packed;
    corrupt[i] ^= 0x55;
    try {
      const Bytes out = codec.decompress(corrupt);
      EXPECT_LE(out.size(), data.size());
    } catch (const DecodeError&) {
      // acceptable: corruption detected
    }
  }
}

}  // namespace
}  // namespace acex
