#include "compress/bwt_codec.hpp"

#include <array>

#include "compress/bwt.hpp"
#include "compress/huffman.hpp"
#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "util/bitstream.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex {
namespace {

constexpr std::uint8_t kModeStored = 0;
constexpr std::uint8_t kModeCompressed = 1;
constexpr std::uint8_t kSentinel = rle::kSentinel;  // 255

/// Fixed-width base-128 integer: four bytes, each holding 7 value bits, all
/// in 0..127 — provably sentinel-free. Covers values up to 2^28 - 1, ample
/// for chunk lengths and primary indices (chunks are capped at 1 MiB).
void put_b128(Bytes& out, std::uint32_t v) {
  for (int shift = 21; shift >= 0; shift -= 7) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0x7f));
  }
}

std::uint32_t get_b128(ByteView in, std::size_t* pos) {
  if (*pos + 4 > in.size()) throw DecodeError("bwt: truncated chunk header");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    const std::uint8_t b = in[(*pos)++];
    if (b > 0x7f) throw DecodeError("bwt: invalid chunk header byte");
    v = (v << 7) | b;
  }
  return v;
}

/// Decode one staged chunk starting at `*pos` (which must point at its
/// header). Advances past the terminating sentinel. Returns the original
/// chunk bytes.
Bytes parse_chunk(ByteView staged, std::size_t* pos) {
  const std::uint32_t orig_len = get_b128(staged, pos);
  const std::uint32_t primary = get_b128(staged, pos);
  if (orig_len > (1u << 20)) throw DecodeError("bwt: chunk length too large");
  // Payload runs to the next sentinel, which rle::encode never emits.
  std::size_t end = *pos;
  while (end < staged.size() && staged[end] != kSentinel) ++end;
  if (end == staged.size()) throw DecodeError("bwt: missing chunk sentinel");
  const ByteView payload = staged.subspan(*pos, end - *pos);
  *pos = end + 1;  // consume the sentinel

  const Bytes mtf_stream = rle::decode(payload);
  const Bytes last_column = mtf::decode(mtf_stream);
  if (last_column.size() != orig_len) {
    throw DecodeError("bwt: chunk length mismatch");
  }
  return bwt::inverse(last_column, primary);
}

}  // namespace

BurrowsWheelerCodec::BurrowsWheelerCodec(std::size_t chunk_size)
    : chunk_size_(chunk_size) {
  if (chunk_size < 64 || chunk_size > (std::size_t{1} << 20)) {
    throw ConfigError("bwt: chunk_size must be in [64, 1 MiB]");
  }
}

Bytes BurrowsWheelerCodec::stage_chunks(ByteView input) const {
  // Each chunk goes through its own BWT -> MTF -> RLE pipeline and is staged
  // as header + RLE stream + sentinel.
  Bytes staged;
  staged.reserve(input.size() + input.size() / 16 + 16);
  for (std::size_t off = 0; off < input.size(); off += chunk_size_) {
    const std::size_t len = std::min(chunk_size_, input.size() - off);
    const auto transformed = bwt::forward(input.subspan(off, len));
    const Bytes rle_stream = rle::encode(mtf::encode(transformed.last_column));
    put_b128(staged, static_cast<std::uint32_t>(len));
    put_b128(staged, transformed.primary);
    staged.insert(staged.end(), rle_stream.begin(), rle_stream.end());
    staged.push_back(kSentinel);
  }
  return staged;
}

Bytes BurrowsWheelerCodec::compress(ByteView input) {
  Bytes out;
  put_varint(out, input.size());
  if (input.empty()) return out;

  const Bytes staged = stage_chunks(input);
  HuffmanCodec huffman;  // §2.4: "all of the chunks are compressed jointly"
  Bytes packed = huffman.compress(staged);

  if (packed.size() + 1 >= input.size()) {
    out.push_back(kModeStored);
    out.insert(out.end(), input.begin(), input.end());
  } else {
    out.push_back(kModeCompressed);
    out.insert(out.end(), packed.begin(), packed.end());
  }
  return out;
}

Bytes BurrowsWheelerCodec::decompress(ByteView input) {
  std::size_t pos = 0;
  const std::uint64_t size = get_varint(input, &pos);
  if (size == 0) return {};
  // Staged bytes are bounded by the inner Huffman payload (8 per byte) and
  // each staged RLE unit expands to at most ~51 source bytes.
  if (size > (input.size() + 8) * 8 * 64) {
    throw DecodeError("bwt: declared size exceeds payload capacity");
  }
  if (pos >= input.size()) throw DecodeError("bwt: missing mode byte");
  const std::uint8_t mode = input[pos++];
  if (mode == kModeStored) {
    if (input.size() - pos != size) {
      throw DecodeError("bwt: stored size mismatch");
    }
    const auto body = input.subspan(pos);
    return Bytes(body.begin(), body.end());
  }
  if (mode != kModeCompressed) throw DecodeError("bwt: unknown mode byte");

  HuffmanCodec huffman;
  const Bytes staged = huffman.decompress(input.subspan(pos));

  // Chunk boundaries are the sentinels; each chunk inverts independently.
  Bytes out;
  out.reserve(size);
  std::size_t spos = 0;
  while (spos < staged.size()) {
    const Bytes chunk = parse_chunk(staged, &spos);
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  if (out.size() != size) throw DecodeError("bwt: reassembled size mismatch");
  return out;
}

std::vector<Bytes> BurrowsWheelerCodec::recover_from_bit(
    ByteView compressed, std::uint64_t bit_offset) {
  // Walk the frame prelude to find the Huffman payload.
  std::size_t pos = 0;
  (void)get_varint(compressed, &pos);
  if (pos >= compressed.size()) throw DecodeError("bwt: missing mode byte");
  if (compressed[pos++] != kModeCompressed) {
    throw DecodeError("bwt: recovery requires a compressed-mode frame");
  }
  const ByteView packed = compressed.subspan(pos);

  // HuffmanCodec payload = varint size + 256-nibble length header + bits.
  std::size_t hpos = 0;
  const std::uint64_t staged_size = get_varint(packed, &hpos);
  BitReader br(packed.subspan(hpos));
  const huff::Decoder dec(huff::read_lengths(br, 256));
  const std::uint64_t header_bits = br.bit_pos();

  // Clamp the requested offset into the symbol stream, then decode bytes —
  // possibly garbage at first — until the code self-synchronizes.
  br.seek(std::max<std::uint64_t>(bit_offset, header_bits));
  Bytes staged_tail;
  staged_tail.reserve(static_cast<std::size_t>(staged_size));
  try {
    while (staged_tail.size() < staged_size) {
      staged_tail.push_back(static_cast<std::uint8_t>(dec.decode(br)));
    }
  } catch (const DecodeError&) {
    // Expected: the tail of a mid-stream decode rarely ends on a symbol
    // boundary. Work with what was recovered.
  }

  // The stream's zero padding can decode into spurious symbols after the
  // final sentinel; anything beyond the last sentinel cannot be a complete
  // chunk, so drop it before parsing.
  while (!staged_tail.empty() && staged_tail.back() != kSentinel) {
    staged_tail.pop_back();
  }

  // Each sentinel is a candidate chunk boundary; try to parse the suffix
  // after each one until a consistent parse emerges.
  std::vector<Bytes> chunks;
  const ByteView tail(staged_tail);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    if (tail[i] != kSentinel) continue;
    std::size_t spos = i + 1;
    chunks.clear();
    try {
      while (spos < tail.size()) {
        chunks.push_back(parse_chunk(tail, &spos));
      }
      if (!chunks.empty()) return chunks;
    } catch (const DecodeError&) {
      // Mis-synchronized candidate; try the next sentinel.
    }
  }
  return {};
}

}  // namespace acex
