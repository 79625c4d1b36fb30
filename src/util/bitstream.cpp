#include "util/bitstream.hpp"

#include <cassert>

#include "util/error.hpp"

namespace acex {

void BitWriter::flush_bytes() {
  const unsigned whole = pending_ / 8;
  const std::size_t at = buf_.size();
  buf_.resize(at + whole);
  for (unsigned k = 0; k < whole; ++k) {
    pending_ -= 8;
    buf_[at + k] = static_cast<std::uint8_t>(acc_ >> pending_);
  }
}

void BitWriter::align_to_byte() {
  const unsigned pad = (8 - pending_ % 8) % 8;
  if (pad != 0) write(0, pad);
}

Bytes BitWriter::take() {
  align_to_byte();
  flush_bytes();
  Bytes out = std::move(buf_);
  buf_.clear();
  acc_ = 0;
  pending_ = 0;
  total_bits_ = 0;
  return out;
}

std::uint64_t BitReader::read(unsigned count) {
  assert(count <= 57);
  if (count == 0) return 0;
  if (count > bits_left()) throw DecodeError("bitstream: read past end");
  const std::uint64_t v = peek(count);
  pos_ += count;
  return v;
}

std::uint64_t BitReader::peek(unsigned count) const {
  assert(count <= 57);
  if (count == 0) return 0;
  std::uint64_t acc = 0;
  std::size_t byte = static_cast<std::size_t>(pos_ >> 3);
  const unsigned bit_off = static_cast<unsigned>(pos_ & 7);
  // Gather enough bytes to cover bit_off + count bits.
  unsigned gathered = 0;
  while (gathered < bit_off + count) {
    const std::uint8_t b = byte < data_.size() ? data_[byte] : 0;
    acc = (acc << 8) | b;
    ++byte;
    gathered += 8;
  }
  // Drop the low bits that are beyond the requested window.
  acc >>= (gathered - bit_off - count);
  if (count < 64) acc &= (std::uint64_t{1} << count) - 1;
  return acc;
}

void BitReader::skip(unsigned count) {
  if (count > bits_left()) throw DecodeError("bitstream: skip past end");
  pos_ += count;
}

void BitReader::align_to_byte() noexcept {
  pos_ = (pos_ + 7) & ~std::uint64_t{7};
}

void BitReader::seek(std::uint64_t bit_pos) {
  if (bit_pos > static_cast<std::uint64_t>(data_.size()) * 8) {
    throw DecodeError("bitstream: seek past end");
  }
  pos_ = bit_pos;
}

}  // namespace acex
