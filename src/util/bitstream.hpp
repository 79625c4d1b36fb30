#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "util/bytes.hpp"

namespace acex {

/// MSB-first bit writer backed by an owned byte buffer. All entropy coders
/// in acex (Huffman, LZ token coder, BWT pipeline) serialize through this.
///
/// Bits are packed from the most significant bit of each byte downward, so
/// that a canonical Huffman decoder can peek a fixed-width window.
class BitWriter {
 public:
  BitWriter() = default;

  /// Start after the bytes already in `prefix` (a header the caller wrote);
  /// take() returns them followed by the bits.
  explicit BitWriter(Bytes prefix) : buf_(std::move(prefix)) {}

  /// Append the low `count` bits of `bits` (0 <= count <= 57), MSB first.
  void write(std::uint64_t bits, unsigned count) {
    assert(count <= 57);
    if (pending_ + count > 64) flush_bytes();
    acc_ = (acc_ << count) | (bits & ((std::uint64_t{1} << count) - 1));
    pending_ += count;
    total_bits_ += count;
  }

  /// Append a single bit.
  void write_bit(bool bit) { write(bit ? 1u : 0u, 1); }

  /// Pad with zero bits to the next byte boundary.
  void align_to_byte();

  /// Make room for `bytes` bytes of output in total.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  /// Number of bits written so far (a constructor prefix not included).
  std::uint64_t bit_count() const noexcept { return total_bits_; }

  /// Flush pending bits (zero-padded) and move the buffer out. The writer is
  /// left empty and reusable.
  Bytes take();

 private:
  /// Move the whole bytes held in acc_ to buf_, leaving pending_ < 8.
  void flush_bytes();

  Bytes buf_;
  std::uint64_t acc_ = 0;   // pending bits in the low pending_ bits
  unsigned pending_ = 0;    // number of valid bits in acc_ (LSB-aligned)
  std::uint64_t total_bits_ = 0;
};

/// MSB-first bit reader over a non-owning byte view.
///
/// Reading past the end throws DecodeError; `peek` zero-fills past the end so
/// table-driven decoders can look ahead near the tail safely.
class BitReader {
 public:
  explicit BitReader(ByteView data) noexcept : data_(data) {}

  /// Read `count` bits (0 <= count <= 57), MSB first.
  std::uint64_t read(unsigned count);

  /// Read one bit.
  bool read_bit() { return read(1) != 0; }

  /// Return the next `count` bits without consuming them, zero-padded if the
  /// stream ends first.
  std::uint64_t peek(unsigned count) const;

  /// Consume `count` bits previously peeked. `count` may exceed the remaining
  /// stream only by the zero padding peeked; that still throws.
  void skip(unsigned count);

  /// Discard bits up to the next byte boundary.
  void align_to_byte() noexcept;

  /// Bits consumed so far.
  std::uint64_t bit_pos() const noexcept { return pos_; }

  /// Reposition to an absolute bit offset (used by the BWT resync decoder).
  void seek(std::uint64_t bit_pos);

  /// Bits remaining in the underlying view.
  std::uint64_t bits_left() const noexcept {
    const std::uint64_t total = static_cast<std::uint64_t>(data_.size()) * 8;
    return pos_ >= total ? 0 : total - pos_;
  }

 private:
  ByteView data_;
  std::uint64_t pos_ = 0;  // absolute bit position
};

}  // namespace acex
