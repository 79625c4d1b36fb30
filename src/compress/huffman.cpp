#include "compress/huffman.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>

#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex::huff {
namespace {

/// One pass of Huffman tree construction returning the depth of each used
/// symbol. Depths are unbounded here; the caller enforces the length limit.
std::vector<std::uint8_t> tree_depths(std::span<const std::uint64_t> freqs) {
  struct Node {
    std::uint64_t freq;
    int left;   // < 0: leaf for symbol ~left
    int right;  // only valid for internal nodes
  };
  std::vector<Node> nodes;
  nodes.reserve(freqs.size() * 2);

  using Entry = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back({freqs[s], ~static_cast<int>(s), 0});
    heap.emplace(freqs[s], static_cast<int>(nodes.size()) - 1);
  }

  std::vector<std::uint8_t> depths(freqs.size(), 0);
  if (heap.empty()) return depths;
  if (heap.size() == 1) {
    depths[static_cast<std::size_t>(~nodes[0].left)] = 1;
    return depths;
  }
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, a, b});
    heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }
  // Iterative depth assignment from the root.
  std::vector<std::pair<int, std::uint8_t>> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    // Leaves were created with left = ~symbol (< 0); internal nodes always
    // hold two valid child indices (>= 0).
    if (n.left < 0) {
      depths[static_cast<std::size_t>(~n.left)] = depth == 0 ? 1 : depth;
    } else {
      stack.push_back({n.left, static_cast<std::uint8_t>(depth + 1)});
      stack.push_back({n.right, static_cast<std::uint8_t>(depth + 1)});
    }
  }
  return depths;
}

}  // namespace

std::vector<std::uint8_t> build_code_lengths(
    std::span<const std::uint64_t> freqs, unsigned max_bits) {
  if (max_bits == 0 || max_bits > kMaxBits) {
    throw ConfigError("huffman: max_bits out of range");
  }
  std::vector<std::uint64_t> work(freqs.begin(), freqs.end());
  for (;;) {
    const auto depths = tree_depths(work);
    const auto deepest = *std::max_element(depths.begin(), depths.end());
    if (deepest <= max_bits) return depths;
    // Flatten the distribution and retry; converges because frequencies
    // approach equality, which yields a balanced (shallow) tree.
    for (auto& f : work) {
      if (f != 0) f = f / 2 + 1;
    }
  }
}

std::vector<Code> canonical_codes(std::span<const std::uint8_t> lengths) {
  std::array<std::uint32_t, kMaxBits + 1> count{};
  for (const auto len : lengths) {
    if (len > kMaxBits) throw DecodeError("huffman: code length > 15");
    ++count[len];
  }
  count[0] = 0;
  // Kraft check: sum of 2^(max-len) over used symbols must fit.
  std::uint64_t kraft = 0;
  for (unsigned len = 1; len <= kMaxBits; ++len) {
    kraft += static_cast<std::uint64_t>(count[len]) << (kMaxBits - len);
  }
  if (kraft > (std::uint64_t{1} << kMaxBits)) {
    throw DecodeError("huffman: oversubscribed code");
  }
  std::array<std::uint16_t, kMaxBits + 2> next{};
  std::uint16_t code = 0;
  for (unsigned len = 1; len <= kMaxBits; ++len) {
    code = static_cast<std::uint16_t>((code + count[len - 1]) << 1);
    next[len] = code;
  }
  std::vector<Code> codes(lengths.size());
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    codes[s] = Code{next[lengths[s]]++, lengths[s]};
  }
  return codes;
}

void write_lengths(BitWriter& out, std::span<const std::uint8_t> lengths) {
  for (const auto len : lengths) out.write(len, 4);
}

std::vector<std::uint8_t> read_lengths(BitReader& in, std::size_t count) {
  std::vector<std::uint8_t> lengths(count);
  for (auto& len : lengths) len = static_cast<std::uint8_t>(in.read(4));
  return lengths;
}

Encoder::Encoder(std::span<const std::uint8_t> lengths)
    : codes_(canonical_codes(lengths)) {}

void Encoder::encode(BitWriter& out, unsigned symbol) const {
  const Code& c = codes_[symbol];
  if (c.len == 0) throw ConfigError("huffman: symbol missing from code");
  out.write(c.bits, c.len);
}

std::uint64_t Encoder::cost_bits(std::span<const std::uint64_t> freqs) const {
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < freqs.size() && s < codes_.size(); ++s) {
    bits += freqs[s] * codes_[s].len;
  }
  return bits;
}

Decoder::Decoder(std::span<const std::uint8_t> lengths) {
  const auto codes = canonical_codes(lengths);  // validates Kraft
  for (const auto& c : codes) max_len_ = std::max<unsigned>(max_len_, c.len);
  if (max_len_ == 0) return;  // empty code: decode() always throws
  table_.assign(std::size_t{1} << max_len_, 0);
  for (std::size_t s = 0; s < codes.size(); ++s) {
    const Code& c = codes[s];
    if (c.len == 0) continue;
    // Every table slot whose top c.len bits equal the codeword maps to s.
    const unsigned fill = max_len_ - c.len;
    const std::size_t base = static_cast<std::size_t>(c.bits) << fill;
    const std::uint32_t entry =
        (static_cast<std::uint32_t>(s) << 4) | c.len;
    for (std::size_t i = 0; i < (std::size_t{1} << fill); ++i) {
      table_[base + i] = entry;
    }
  }
}

unsigned Decoder::decode(BitReader& in) const {
  if (max_len_ == 0) throw DecodeError("huffman: empty code");
  const auto window = static_cast<std::size_t>(in.peek(max_len_));
  const std::uint32_t entry = table_[window];
  const unsigned len = entry & 0xF;
  if (len == 0 || len > in.bits_left()) {
    throw DecodeError("huffman: invalid codeword or truncated stream");
  }
  in.skip(len);
  return entry >> 4;
}

}  // namespace acex::huff

namespace acex {

Bytes HuffmanCodec::compress(ByteView input) {
  Bytes out;
  put_varint(out, input.size());
  if (input.empty()) return out;

  std::array<std::uint64_t, 256> freqs{};
  for (const auto b : input) ++freqs[b];

  const auto lengths = huff::build_code_lengths(freqs);
  BitWriter bw(std::move(out));
  bw.reserve(256 + input.size());  // length header plus ~1 byte per byte
  huff::write_lengths(bw, lengths);
  const huff::Encoder enc(lengths);
  for (const auto b : input) enc.encode(bw, b);
  return bw.take();
}

Bytes HuffmanCodec::decompress(ByteView input) {
  std::size_t pos = 0;
  const std::uint64_t size = get_varint(input, &pos);
  if (size == 0) return {};
  // Every symbol costs at least one bit, so the declared size cannot
  // exceed the number of payload bits; reject corrupt headers early.
  if (size > (input.size() - pos) * 8) {
    throw DecodeError("huffman: declared size exceeds payload capacity");
  }
  BitReader br(input.subspan(pos));
  const auto lengths = huff::read_lengths(br, 256);
  const huff::Decoder dec(lengths);
  Bytes out;
  out.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    out.push_back(static_cast<std::uint8_t>(dec.decode(br)));
  }
  return out;
}

}  // namespace acex
