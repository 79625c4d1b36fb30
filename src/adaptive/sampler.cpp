#include "adaptive/sampler.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace acex::adaptive {
namespace {

SampleResult run_sample(ByteView prefix) {
  SampleResult result;
  result.sample_bytes = prefix.size();
  if (prefix.empty()) return result;

  // Sub-millisecond one-shot timings of a 4 KiB compression are dominated
  // by cache state and timer noise; take the fastest of three runs, the
  // standard microbenchmark estimator of attainable speed. The sender
  // smooths what it gets (an EWMA(0.4) of the reducing speed, and only the
  // ratio of two smoothed speeds corrects block-level LZ drift), but its
  // very first LZ estimate is the first sample alone. A single pass reads
  // ~15-20 % slower in the median and flips early-block decisions, so the
  // three passes stay until a cheaper estimator of the same speed exists.
  MonotonicClock clock;
  LempelZivCodec lz;
  Bytes packed;
  Seconds best = 1e9;
  for (int run = 0; run < 3; ++run) {
    const Stopwatch sw(clock);
    packed = lz.compress(prefix);
    best = std::min(best, sw.elapsed());
    if (best > 0.005) break;  // big samples: one timing is accurate enough
  }
  result.elapsed = std::max(best, 1e-9);  // avoid divide-by-zero

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
