#include "compress/lz77.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>

#include "compress/huffman.hpp"
#include "util/bitstream.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex {
namespace lz {
namespace {

constexpr unsigned kHashBits = 15;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr std::size_t kMaxWindow = std::size_t{1} << 16;

std::uint32_t hash3(const std::uint8_t* p) noexcept {
  const std::uint32_t v = (static_cast<std::uint32_t>(p[0]) << 16) |
                          (static_cast<std::uint32_t>(p[1]) << 8) | p[2];
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::uint64_t load64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Length of the common prefix of `a` and `b`, capped at `max_len`;
/// compares eight bytes per step.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t max_len) noexcept {
  std::size_t len = 0;
  for (; len + 8 <= max_len; len += 8) {
    const std::uint64_t diff = load64(a + len) ^ load64(b + len);
    if (diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bit / 8);
    }
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

/// Hash-chain tables, kept per thread and reused by every call on it, so a
/// call allocates and clears nothing. Positions are stored as `base + i`:
/// each call claims a fresh range of that number space, so every entry left
/// by an earlier call sits below the current `base` and ends a chain exactly
/// where a cleared table would have (0 is below every base).
struct ChainTables {
  /// The first base. Bases start a full window above 0 so that following a
  /// saturated link (below) never wraps around.
  static constexpr std::uint32_t kFirstBase = kMaxWindow + 1;

  std::vector<std::uint32_t> head = std::vector<std::uint32_t>(kHashSize, 0);
  /// Chain links as (distance to the previous position with this hash) - 1,
  /// saturated at 64 KiB, which is past every window. Indexed by position
  /// modulo the table's power-of-two size, at least min(input size, 64 KiB):
  /// a link is overwritten only by a position a full window later, after
  /// its own position has left the window.
  std::vector<std::uint16_t> prev;
  std::uint32_t next_base = kFirstBase;
};

ChainTables& thread_tables() {
  thread_local ChainTables tables;
  return tables;
}

/// Hash-chain index over one input. head maps a 3-byte hash to the most
/// recent position; prev chains positions with equal hashes backwards.
class Matcher {
 public:
  Matcher(ByteView input, const Params& params, ChainTables& tables)
      : in_(input),
        window_(std::size_t{1} << std::min(params.window_bits, 16u)),
        max_chain_(params.max_chain) {
    const std::size_t n = input.size();
    constexpr auto kPositions = std::numeric_limits<std::uint32_t>::max();
    if (n > kPositions - ChainTables::kFirstBase) {
      throw ConfigError("lz: input exceeds 4 GiB");
    }
    if (n > kPositions - tables.next_base) {
      // The position space is used up: clear once and start over.
      std::fill(tables.head.begin(), tables.head.end(), 0u);
      tables.next_base = ChainTables::kFirstBase;
    }
    base_ = tables.next_base;
    tables.next_base += static_cast<std::uint32_t>(n);
    const std::size_t links = std::bit_ceil(std::min(n, kMaxWindow));
    if (tables.prev.size() < links) tables.prev.resize(links);
    head_ = tables.head.data();
    prev_ = tables.prev.data();
    prev_mask_ = tables.prev.size() - 1;
  }

  /// Register position `i` in the chains (requires i + 3 <= input size).
  void insert(std::size_t i) noexcept {
    const std::uint32_t pos = base_ + static_cast<std::uint32_t>(i);
    std::uint32_t& head = head_[hash3(in_.data() + i)];
    const std::uint32_t dist = std::min<std::uint32_t>(pos - head, kMaxWindow);
    prev_[pos & prev_mask_] = static_cast<std::uint16_t>(dist - 1);
    head = pos;
  }

  /// Longest match for position `i` among previously inserted positions
  /// within the window. Returns length 0 when no match of >= kMinMatch.
  Token best(std::size_t i) const noexcept {
    const std::size_t n = in_.size();
    if (i + kMinMatch > n) return {};
    const std::size_t max_len = std::min<std::size_t>(kMaxMatch, n - i);
    // Below `lowest` lies the window's far edge, then earlier calls.
    const std::uint32_t lowest =
        base_ + static_cast<std::uint32_t>(i > window_ ? i - window_ : 0);
    const std::uint8_t* a = in_.data() + i;

    Token bestTok{};
    std::size_t best_len = kMinMatch - 1;
    unsigned chain = max_chain_;
    for (std::uint32_t cand = head_[hash3(a)]; cand >= lowest && chain > 0;
         cand -= prev_[cand & prev_mask_] + 1u, --chain) {
      const std::size_t c = cand - base_;
      const std::uint8_t* b = in_.data() + c;
      // Quick reject: match must beat the current best at its last byte.
      if (b[best_len] != a[best_len]) continue;
      const std::size_t len = match_length(a, b, max_len);
      if (len > best_len) {
        best_len = len;
        bestTok = Token{static_cast<std::uint32_t>(i - c),
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
  std::uint32_t base_ = 0;
  std::uint32_t* head_ = nullptr;
  std::uint16_t* prev_ = nullptr;
  std::size_t prev_mask_ = 0;
};

struct LengthCode {
  std::uint8_t symbol;
  std::uint8_t extra_bits;
};

/// length_bucket's symbol and extra-bit count for every len - kMinMatch.
constexpr std::array<LengthCode, kMaxMatch - kMinMatch + 1>
make_length_codes() {
  std::array<LengthCode, kMaxMatch - kMinMatch + 1> codes{};
  for (unsigned v = 0; v < codes.size(); ++v) {
    if (v < 8) {
      codes[v] = {static_cast<std::uint8_t>(v), 0};
      continue;
    }
    const unsigned k = std::bit_width(v) - 1;  // 3..7
    const unsigned symbol = 8 + (k - 3) * 2 + ((v >> (k - 1)) & 1);
    codes[v] = {static_cast<std::uint8_t>(symbol),
                static_cast<std::uint8_t>(k - 1)};
  }
  return codes;
}

constexpr auto kLengthCodes = make_length_codes();

}  // namespace

std::vector<Token> tokenize(ByteView input, const Params& params) {
  std::vector<Token> out;
  const std::size_t n = input.size();
  if (n == 0) return out;
  out.reserve(n / 4);

  Matcher m(input, params, thread_tables());
  std::size_t i = 0;
  Token prev{};             // candidate match found at position i-1
  bool pending = false;     // true when position i-1 awaits resolution

  while (i < n) {
    Token cur{};
    if (i + kMinMatch <= n) {
      cur = m.best(i);
      m.insert(i);
    }
    if (pending && prev.len >= kMinMatch &&
        (!params.lazy || prev.len >= cur.len)) {
      // The match starting at i-1 wins; it also covers position i.
      out.push_back(prev);
      const std::size_t end = i - 1 + prev.len;
      for (std::size_t j = i + 1; j < end && j + kMinMatch <= n; ++j) {
        m.insert(j);
      }
      i = end;
      pending = false;
    } else {
      if (pending) out.push_back(Token{0, 0, input[i - 1]});
      prev = cur;
      pending = true;
      ++i;
    }
  }
  // Any still-pending position is within kMinMatch of the end, so its match
  // length is < kMinMatch and it resolves to a literal.
  if (pending) out.push_back(Token{0, 0, input[n - 1]});
  return out;
}

Bytes reconstruct(const std::vector<Token>& tokens) {
  Bytes out;
  for (const Token& t : tokens) {
    if (t.is_literal()) {
      out.push_back(t.literal);
      continue;
    }
    if (t.dist == 0 || t.dist > out.size()) {
      throw DecodeError("lz: back-reference before start of data");
    }
    // Byte-wise copy: overlapping references (dist < len) replicate runs.
    std::size_t src = out.size() - t.dist;
    for (unsigned k = 0; k < t.len; ++k) out.push_back(out[src + k]);
  }
  return out;
}

Bucket length_bucket(unsigned len) noexcept {
  assert(len >= kMinMatch && len <= kMaxMatch);
  const unsigned v = len - kMinMatch;  // 0..255
  const LengthCode code = kLengthCodes[v];
  return Bucket{code.symbol, code.extra_bits,
                v & ((1u << code.extra_bits) - 1)};
}

Bucket distance_bucket(std::uint32_t d) noexcept {
  assert(d >= 1 && d <= 65536);
  const std::uint32_t v = d - 1;  // 0..65535
  if (v < 4) return Bucket{v, 0, 0};
  const unsigned k = std::bit_width(v) - 1;  // 2..15
  const unsigned sym = 4 + (k - 2) * 2 + ((v >> (k - 1)) & 1);
  const unsigned eb = k - 1;
  return Bucket{sym, eb, v & ((1u << eb) - 1)};
}

unsigned length_base(unsigned symbol, unsigned* extra_bits) {
  if (symbol >= kLenSymbols) throw DecodeError("lz: bad length symbol");
  if (symbol < 8) {
    *extra_bits = 0;
    return kMinMatch + symbol;
  }
  const unsigned t = symbol - 8;
  const unsigned k = 3 + t / 2;
  const unsigned half = t & 1;
  *extra_bits = k - 1;
  return kMinMatch + (1u << k) + half * (1u << (k - 1));
}

std::uint32_t distance_base(unsigned symbol, unsigned* extra_bits) {
  if (symbol >= kDistSymbols) throw DecodeError("lz: bad distance symbol");
  if (symbol < 4) {
    *extra_bits = 0;
    return 1 + symbol;
  }
  const unsigned t = symbol - 4;
  const unsigned k = 2 + t / 2;
  const unsigned half = t & 1;
  *extra_bits = k - 1;
  return 1 + (1u << k) + half * (1u << (k - 1));
}

}  // namespace lz

namespace {

constexpr std::uint8_t kModeStored = 0;
constexpr std::uint8_t kModeCompressed = 1;

}  // namespace

Bytes LempelZivCodec::compress(ByteView input) {
  Bytes out;
  put_varint(out, input.size());
  if (input.empty()) return out;

  const auto tokens = lz::tokenize(input, params_);

  // Gather symbol statistics for the two codes.
  std::vector<std::uint64_t> litlen_freq(lz::kLitLenSymbols, 0);
  std::vector<std::uint64_t> dist_freq(lz::kDistSymbols, 0);
  for (const auto& t : tokens) {
    if (t.is_literal()) {
      ++litlen_freq[t.literal];
    } else {
      ++litlen_freq[256 + lz::length_bucket(t.len).symbol];
      ++dist_freq[lz::distance_bucket(t.dist).symbol];
    }
  }
  const auto litlen_lengths = huff::build_code_lengths(litlen_freq);
  const auto dist_lengths = huff::build_code_lengths(dist_freq);

  const std::size_t header = out.size();
  out.push_back(kModeCompressed);
  BitWriter bw(std::move(out));
  bw.reserve(header + input.size());
  huff::write_lengths(bw, litlen_lengths);
  huff::write_lengths(bw, dist_lengths);
  const huff::Encoder lit_enc(litlen_lengths);
  const huff::Encoder dist_enc(dist_lengths);
  for (const auto& t : tokens) {
    if (t.is_literal()) {
      lit_enc.encode(bw, t.literal);
    } else {
      const auto lb = lz::length_bucket(t.len);
      lit_enc.encode(bw, 256 + lb.symbol);
      bw.write(lb.extra, lb.extra_bits);
      const auto db = lz::distance_bucket(t.dist);
      dist_enc.encode(bw, db.symbol);
      bw.write(db.extra, db.extra_bits);
    }
  }

  out = bw.take();
  if (out.size() >= header + input.size()) {
    // Compression expands (random data, tiny inputs): store verbatim.
    out.resize(header);
    out.push_back(kModeStored);
    out.insert(out.end(), input.begin(), input.end());
  }
  return out;
}

Bytes LempelZivCodec::decompress(ByteView input) {
  std::size_t pos = 0;
  const std::uint64_t size = get_varint(input, &pos);
  if (size == 0) return {};
  // A token needs >= 2 bits and emits <= 258 bytes, bounding expansion at
  // ~1032 bytes per payload byte; reject corrupt size headers beyond that.
  if (size > (input.size() + 8) * 1100) {
    throw DecodeError("lz: declared size exceeds payload capacity");
  }
  if (pos >= input.size()) throw DecodeError("lz: missing mode byte");
  const std::uint8_t mode = input[pos++];

  if (mode == kModeStored) {
    if (input.size() - pos != size) throw DecodeError("lz: stored size mismatch");
    const auto body = input.subspan(pos);
    return Bytes(body.begin(), body.end());
  }
  if (mode != kModeCompressed) throw DecodeError("lz: unknown mode byte");

  BitReader br(input.subspan(pos));
  const huff::Decoder lit_dec(huff::read_lengths(br, lz::kLitLenSymbols));
  const huff::Decoder dist_dec(huff::read_lengths(br, lz::kDistSymbols));

  Bytes out;
  out.reserve(size);
  while (out.size() < size) {
    const unsigned sym = lit_dec.decode(br);
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    unsigned len_eb = 0;
    const unsigned len =
        lz::length_base(sym - 256, &len_eb) +
        static_cast<unsigned>(br.read(len_eb));
    unsigned dist_eb = 0;
    const std::uint32_t dist =
        lz::distance_base(dist_dec.decode(br), &dist_eb) +
        static_cast<std::uint32_t>(br.read(dist_eb));
    if (dist > out.size()) {
      throw DecodeError("lz: back-reference before start of data");
    }
    if (out.size() + len > size) {
      throw DecodeError("lz: output overruns declared size");
    }
    std::size_t src = out.size() - dist;
    for (unsigned k = 0; k < len; ++k) out.push_back(out[src + k]);
  }
  return out;
}

}  // namespace acex
