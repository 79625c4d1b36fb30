#include "compress/arith.hpp"

#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex {
namespace arith {
namespace {

constexpr unsigned kSymbols = 256;
constexpr std::uint32_t kIncrement = 24;
/// Keep total < 2^16 so range * total fits comfortably in 64 bits with
/// 32-bit code values.
constexpr std::uint32_t kMaxTotal = 1u << 16;

}  // namespace

AdaptiveByteModel::AdaptiveByteModel() : tree_(kSymbols + 1, 0) {
  std::vector<std::uint32_t> uniform(kSymbols, 1);
  rebuild(uniform);
}

void AdaptiveByteModel::rebuild(
    const std::vector<std::uint32_t>& freqs) noexcept {
  std::fill(tree_.begin(), tree_.end(), 0u);
  total_ = 0;
  for (unsigned s = 0; s < kSymbols; ++s) {
    total_ += freqs[s];
    for (unsigned i = s + 1; i <= kSymbols; i += i & (0u - i)) {
      tree_[i] += freqs[s];
    }
  }
}

std::uint32_t AdaptiveByteModel::cum_below(unsigned symbol) const noexcept {
  std::uint32_t sum = 0;
  for (unsigned i = symbol; i > 0; i -= i & (0u - i)) sum += tree_[i];
  return sum;
}

std::uint32_t AdaptiveByteModel::freq(unsigned symbol) const noexcept {
  return cum_below(symbol + 1) - cum_below(symbol);
}

unsigned AdaptiveByteModel::find(std::uint32_t target) const noexcept {
  // Fenwick binary descend: locate the last prefix whose sum <= target.
  unsigned pos = 0;
  std::uint32_t remaining = target;
  for (unsigned step = 256; step > 0; step >>= 1) {
    const unsigned next = pos + step;
    if (next <= kSymbols && tree_[next] <= remaining) {
      pos = next;
      remaining -= tree_[next];
    }
  }
  return pos < kSymbols ? pos : kSymbols - 1;
}

void AdaptiveByteModel::update(unsigned symbol) noexcept {
  if (total_ + kIncrement >= kMaxTotal) {
    // Halve every frequency, keeping each at least 1, then rebuild.
    std::vector<std::uint32_t> freqs(kSymbols);
    for (unsigned s = 0; s < kSymbols; ++s) {
      freqs[s] = (freq(s) + 1) / 2;
      if (freqs[s] == 0) freqs[s] = 1;
    }
    rebuild(freqs);
  }
  for (unsigned i = symbol + 1; i <= kSymbols; i += i & (0u - i)) {
    tree_[i] += kIncrement;
  }
  total_ += kIncrement;
}

namespace {

constexpr std::uint64_t kTop = 0xFFFFFFFFull;        // 2^32 - 1
constexpr std::uint64_t kHalf = 0x80000000ull;       // 2^31
constexpr std::uint64_t kQuarter = 0x40000000ull;    // 2^30
constexpr std::uint64_t kThreeQuarters = kHalf + kQuarter;

class Encoder {
 public:
  explicit Encoder(BitWriter& out) : out_(&out) {}

  void encode(std::uint32_t cum_lo, std::uint32_t cum_hi,
              std::uint32_t total) {
    const std::uint64_t range = high_ - low_ + 1;
    high_ = low_ + range * cum_hi / total - 1;
    low_ = low_ + range * cum_lo / total;
    for (;;) {
      if (high_ < kHalf) {
        emit(0);
      } else if (low_ >= kHalf) {
        emit(1);
        low_ -= kHalf;
        high_ -= kHalf;
      } else if (low_ >= kQuarter && high_ < kThreeQuarters) {
        ++pending_;
        low_ -= kQuarter;
        high_ -= kQuarter;
      } else {
        break;
      }
      low_ <<= 1;
      high_ = (high_ << 1) | 1;
    }
  }

  void finish() {
    // Disambiguate the final interval with one more bit plus its pending
    // opposites; the decoder's zero-fill past end covers the rest.
    ++pending_;
    emit(low_ >= kQuarter ? 1 : 0);
  }

 private:
  void emit(int bit) {
    out_->write_bit(bit != 0);
    while (pending_ > 0) {
      out_->write_bit(bit == 0);
      --pending_;
    }
  }

  BitWriter* out_;
  std::uint64_t low_ = 0;
  std::uint64_t high_ = kTop;
  unsigned pending_ = 0;
};

class Decoder {
 public:
  explicit Decoder(BitReader& in) : in_(&in) {
    for (int i = 0; i < 32; ++i) value_ = (value_ << 1) | next_bit();
  }

  std::uint32_t target(std::uint32_t total) const {
    const std::uint64_t range = high_ - low_ + 1;
    return static_cast<std::uint32_t>(
        ((value_ - low_ + 1) * total - 1) / range);
  }

  void consume(std::uint32_t cum_lo, std::uint32_t cum_hi,
               std::uint32_t total) {
    const std::uint64_t range = high_ - low_ + 1;
    high_ = low_ + range * cum_hi / total - 1;
    low_ = low_ + range * cum_lo / total;
    for (;;) {
      if (high_ < kHalf) {
        // nothing
      } else if (low_ >= kHalf) {
        low_ -= kHalf;
        high_ -= kHalf;
        value_ -= kHalf;
      } else if (low_ >= kQuarter && high_ < kThreeQuarters) {
        low_ -= kQuarter;
        high_ -= kQuarter;
        value_ -= kQuarter;
      } else {
        break;
      }
      low_ <<= 1;
      high_ = (high_ << 1) | 1;
      value_ = (value_ << 1) | next_bit();
    }
  }

 private:
  /// The encoder's tail is implicitly zero-padded; reading past the end of
  /// the stored stream yields 0 bits, matching BitWriter's byte alignment.
  std::uint64_t next_bit() {
    if (in_->bits_left() == 0) return 0;
    return in_->read(1);
  }

  BitReader* in_;
  std::uint64_t low_ = 0;
  std::uint64_t high_ = kTop;
  std::uint64_t value_ = 0;
};

}  // namespace
}  // namespace arith

Bytes ArithmeticCodec::compress(ByteView input) {
  Bytes out;
  put_varint(out, input.size());
  if (input.empty()) return out;

  arith::AdaptiveByteModel model;
  BitWriter bw(std::move(out));
  arith::Encoder enc(bw);
  for (const std::uint8_t byte : input) {
    const std::uint32_t lo = model.cum_below(byte);
    const std::uint32_t hi = lo + model.freq(byte);
    enc.encode(lo, hi, model.total());
    model.update(byte);
  }
  enc.finish();
  return bw.take();
}

Bytes ArithmeticCodec::decompress(ByteView input) {
  std::size_t pos = 0;
  const std::uint64_t size = get_varint(input, &pos);
  if (size == 0) return {};
  // The adaptive model's top symbol probability is bounded, so expansion
  // cannot exceed ~1500 decoded bytes per compressed byte; a corrupt size
  // header past that bound would otherwise loop on zero-filled tail bits.
  if (size > (input.size() - pos + 8) * 2000) {
    throw DecodeError("arith: declared size exceeds payload capacity");
  }
  BitReader br(input.subspan(pos));
  arith::AdaptiveByteModel model;
  arith::Decoder dec(br);
  Bytes out;
  out.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::uint32_t t = dec.target(model.total());
    const unsigned sym = model.find(t);
    const std::uint32_t lo = model.cum_below(sym);
    const std::uint32_t hi = lo + model.freq(sym);
    dec.consume(lo, hi, model.total());
    model.update(sym);
    out.push_back(static_cast<std::uint8_t>(sym));
  }
  return out;
}

}  // namespace acex
