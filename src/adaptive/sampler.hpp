#pragma once

#include <future>
#include <optional>

#include "compress/lz77.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"

namespace acex::adaptive {

/// What one sampling pass learned about the upcoming block.
struct SampleResult {
  double ratio_percent = 100.0;  ///< compressed/original of the sample
  double reducing_speed = 0.0;   ///< bytes removed per second, 0 if none
  double throughput = 0.0;       ///< sample bytes consumed per second
  Seconds elapsed = 0.0;         ///< fastest LZ pass, monotonic wall time
  std::size_t sample_bytes = 0;
};

/// §2.5's sampling step: "Fork a sampling process to compress the first 4KB
/// of the next block by Lempel-Ziv and use its output to determine the
/// reducing speed size and the compression ratio for the next 128KB block."
///
/// We substitute a std::async task (or an inline call) for the fork(2) of
/// the paper — identical estimate, same overlap with sending when async
/// (DESIGN.md §2). Timing always uses a monotonic clock: sampling measures
/// real CPU capability, which is exactly what the selector needs even when
/// the surrounding experiment runs on virtual time.
class Sampler {
 public:
  /// `prefix_size`: how much of the block to sample (the paper's 4 KiB).
  explicit Sampler(std::size_t prefix_size = 4 * 1024);

  /// Synchronous sampling of `block`'s prefix.
  SampleResult sample(ByteView block) const;

  /// Launch sampling concurrently ("fork"); retrieve with wait().
  /// The data is copied, so the caller may reuse the block immediately.
  void launch(ByteView block);

  /// Block until the launched sample completes ("Wait for child
  /// process."); std::nullopt if launch() was never called.
  std::optional<SampleResult> wait();

  bool pending() const noexcept { return future_.valid(); }

  std::size_t prefix_size() const noexcept { return prefix_size_; }

 private:
  std::size_t prefix_size_;
  std::future<SampleResult> future_;
};

}  // namespace acex::adaptive
