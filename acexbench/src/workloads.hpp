#pragma once

// The three acexbench workloads and the single-layer probes they share.
// Each run_* builds its inputs from the seed alone, sets the system up,
// measures it for opts.seconds, verifies every subscriber's bytes, and
// returns the end-to-end metrics (untraced) or the per-layer metrics
// (opts.trace).

#include <functional>
#include <vector>

#include "harness.hpp"

namespace acexbench {

/// bulk_link: ParallelSender over a paced link cycling three rate tiers;
/// the far end decodes on its own thread. Closed loop.
Outcome run_bulk_link(const Options& opts);

/// daemon_live: an in-process acexd with four loopback subscribers fed on
/// a fixed open-loop schedule of 16 KiB commercial blocks.
Outcome run_daemon_live(const Options& opts);

/// shm_fanout: FanoutBroker staging frames in a ShmBus for 64 endpoint
/// subscribers on four link tiers. Closed loop.
Outcome run_shm_fanout(const Options& opts);

// ---- single-layer probes (traced runs only) ----------------------------

/// What a decomposed plan -> encode_block -> finish_block driver measured
/// over a workload's blocks.
struct PlanProbe {
  double sample_us_per_block = 0;   ///< Sampler::sample()
  double plan_us_per_block = 0;     ///< AdaptiveSender::plan_block_sampled()
  double cpu_estimate_err_pct = 0;  ///< median |predicted - measured| encode
};

/// Drive an AdaptiveSender block by block over a virtual-time link whose
/// rate for frame sequence s is `rate_of(s)` (no sleeping: the link clock
/// advances by bytes / rate). The prediction for each block is read from
/// monitor().throughput_or() for the planned method before the block is
/// finished; the null codec is left out (its "encode" is a copy the
/// selector never prices).
PlanProbe probe_plan(const std::vector<ByteView>& blocks, std::size_t passes,
                     const std::function<double(std::uint64_t)>& rate_of);

/// crc32() throughput over the blocks, in MB/s (10^6 bytes).
double probe_crc32_mbps(const std::vector<ByteView>& blocks);

/// frame_build_seq(kNone, ...) cost per block, in microseconds.
double probe_frame_us(const std::vector<ByteView>& blocks);

/// Add the three probes above as per-layer metrics.
void add_layer_probes(Outcome& out, const std::vector<ByteView>& blocks,
                      const std::function<double(std::uint64_t)>& rate_of);

/// Number of method changes between consecutive blocks per 100 blocks.
double switches_per_100(const std::vector<MethodId>& methods);

}  // namespace acexbench
