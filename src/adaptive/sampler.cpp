#include "adaptive/sampler.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace acex::adaptive {
namespace {

SampleResult run_sample(ByteView prefix) {
  SampleResult result;
  result.sample_bytes = prefix.size();
  if (prefix.empty()) return result;

  // One timed LZ pass, as §2.5 prescribes. The ratio is exact; the speed
  // is a one-shot timing, biased by cache state and timer noise. The
  // sender's drift correction reads only the ratio of two EWMA-smoothed
  // sample speeds, so a steady bias cancels, and its first-block
  // extrapolation misses the block speed by no more than the fastest of
  // three passes did (EXPERIMENTS.md, caveat 4).
  MonotonicClock clock;
  LempelZivCodec lz;
  const Stopwatch sw(clock);
  const Bytes packed = lz.compress(prefix);
  result.elapsed = std::max(sw.elapsed(), 1e-9);  // avoid divide-by-zero

  result.ratio_percent = 100.0 * static_cast<double>(packed.size()) /
                         static_cast<double>(prefix.size());
  result.throughput = static_cast<double>(prefix.size()) / result.elapsed;
  if (packed.size() < prefix.size()) {
    result.reducing_speed =
        static_cast<double>(prefix.size() - packed.size()) / result.elapsed;
  }
  return result;
}

}  // namespace

Sampler::Sampler(std::size_t prefix_size) : prefix_size_(prefix_size) {
  if (prefix_size == 0) throw ConfigError("sampler: prefix_size must be > 0");
}

SampleResult Sampler::sample(ByteView block) const {
  return run_sample(block.subspan(0, std::min(prefix_size_, block.size())));
}

void Sampler::launch(ByteView block) {
  const auto prefix = block.subspan(0, std::min(prefix_size_, block.size()));
  Bytes copy(prefix.begin(), prefix.end());
  future_ = std::async(std::launch::async, [copy = std::move(copy)] {
    return run_sample(copy);
  });
}

std::optional<SampleResult> Sampler::wait() {
  if (!future_.valid()) return std::nullopt;
  return future_.get();
}

}  // namespace acex::adaptive
