// §5 headline numbers: end-to-end totals for bulk transfers over the
// loaded 100 Mb link.
//
//   Commercial data:  paper 10.7142 s adaptive vs 29.1388 s uncompressed
//                     (~2.7x; "compression took slightly more than 60% of
//                     total time").
//   Molecular data:   paper ~29 s -> 30.5 s — adaptive *loses* slightly,
//                     motivating application-specific lossy compression.
//
// The paper's totals come from a bulk transfer that collides with the
// trace's congestion; a transfer that finishes before the load ramp shows
// nothing. We therefore drive a sustained-congestion profile (ramp to a
// saturated link that STAYS saturated — the tail of the MBone session) and
// report adaptive vs the fixed policies, with both the paper's decision
// constants and constants re-derived by the Calibrator on this host.

#include <thread>

#include "adaptive/calibrator.hpp"
#include "adaptive/pipeline.hpp"
#include "bench_common.hpp"
#include "engine/thread_pool.hpp"
#include "netsim/load_trace.hpp"

namespace {

acex::adaptive::ExperimentConfig scenario(double cpu_scale) {
  using namespace acex;
  adaptive::ExperimentConfig config;
  config.link = netsim::fast_ethernet_link();
  config.link.jitter_frac = 0.02;
  config.link.share_per_connection = 0.014;
  // Connections ramp in and stay: 25 (~35 % of capacity), 50 (~70 %),
  // then 68 — the MBone x4 peak — saturating the link to its 5 % floor.
  config.background = netsim::LoadTrace(
      {{0, 0}, {2, 25}, {4, 50}, {6, 68}});
  config.adaptive.async_sampling = false;
  config.adaptive.initial_bandwidth_Bps = config.link.bandwidth_Bps;
  config.adaptive.cpu_scale = cpu_scale;
  return config;
}

void run_dataset(const char* title, const char* slug, const acex::Bytes& data,
                 acex::adaptive::ExperimentConfig config) {
  using namespace acex;
  bench::header(title);
  std::printf("%zu bytes, 100 Mb link under a sustained load ramp\n\n",
              data.size());

  const auto results = adaptive::run_policy_comparison(data, config);
  const std::string series = std::string("bench.headline.") + slug;
  double adaptive_total = 0, raw_total = 0;
  for (const auto& r : results) {
    bench::print_stream_summary(r.policy.c_str(), r.stream);
    if (!r.verified) std::printf("  !! round-trip FAILED for %s\n",
                                 r.policy.c_str());
    bench::record_result(series + ".total_s", "policy", r.policy,
                         r.stream.total_seconds);
    bench::record_result(series + ".wire_pct", "policy", r.policy,
                         r.stream.wire_ratio_percent());
    if (r.policy == "adaptive") adaptive_total = r.stream.total_seconds;
    if (r.policy == "none") raw_total = r.stream.total_seconds;
  }
  bench::record_result(series + ".speedup_vs_raw", "policy", "adaptive",
                       raw_total / adaptive_total);
  std::printf("\nadaptive vs uncompressed: %.2fx %s\n",
              raw_total / adaptive_total,
              raw_total > adaptive_total ? "faster" : "slower (<1x)");
}

/// Wall-clock encode throughput for the same stream at 1 and N workers —
/// the parallel engine's contribution, orthogonal to the virtual-time
/// totals above (which model the 2003 link, not this host's cores).
void run_parallel_throughput(const char* title, const acex::Bytes& data) {
  using namespace acex;
  adaptive::AdaptiveConfig config;
  config.async_sampling = false;

  const std::size_t block_size = config.decision.block_size;
  const std::size_t blocks = (data.size() + block_size - 1) / block_size;
  const std::size_t hw = engine::resolve_worker_threads(0);

  bench::header(title);
  std::printf("wall-clock adaptive encode, %zu blocks of %zu KiB\n",
              blocks, block_size / 1024);
  MonotonicClock wall;
  for (const std::size_t workers : {std::size_t{1}, hw}) {
    config.worker_threads = workers;
    bench::CaptureTransport transport;
    adaptive::AdaptiveSender sender(transport, config);
    const Seconds start = wall.now();
    sender.send_all(data);
    const double elapsed = wall.now() - start;
    std::printf("  %zu worker(s): %8.1f blocks/s  (%.3f s)\n", workers,
                static_cast<double>(blocks) / elapsed, elapsed);
    bench::record_result("bench.headline.encode_blocks_per_s", "workers",
                         std::to_string(workers),
                         static_cast<double>(blocks) / elapsed);
    if (workers == hw) break;  // single-core host: one row says it all
  }
}

}  // namespace

int main() {
  using namespace acex;

  const Bytes commercial = bench::commercial_data(48 * 1024 * 1024);
  const Bytes molecular = bench::molecular_data(16384, 84);  // ~44 MB

  // One Sun-Fire calibration shared by every run so totals are comparable.
  const double cpu_scale = adaptive::cpu_scale_for_lz_speed(
      commercial, adaptive::kPaperLzReducingBps);
  std::printf("Sun-Fire CPU emulation: cpu_scale=%.3f\n", cpu_scale);

  // --- paper constants ---------------------------------------------------
  run_dataset("Headline (commercial, paper constants)", "commercial",
              commercial, scenario(cpu_scale));
  run_dataset("Headline (molecular, paper constants)", "molecular", molecular,
              scenario(cpu_scale));

  // --- host-calibrated constants (§2.5: "can be tuned easily by sampling
  // even a small piece of data") --------------------------------------
  {
    auto config = scenario(cpu_scale);
    const adaptive::CalibrationReport calib = adaptive::Calibrator().calibrate(
        ByteView(commercial).subspan(0, 1024 * 1024), config.adaptive.decision);
    config.adaptive.decision = calib.params;
    std::printf(
        "\ncalibrated constants: alpha=%.2f beta=%.2f ratio_cut=%.1f%%\n",
        calib.params.alpha, calib.params.beta, calib.params.ratio_cut_percent);
    run_dataset("Headline (commercial, host-calibrated constants)",
                "commercial_calibrated", commercial, config);
  }

  // --- parallel engine: wall-clock blocks/s at 1 and N workers ----------
  run_parallel_throughput("Parallel encode throughput (commercial)",
                          commercial);
  run_parallel_throughput("Parallel encode throughput (molecular)",
                          molecular);

  std::printf(
      "\nPaper reference: 10.71 s adaptive vs 29.14 s raw (2.72x) on "
      "commercial data;\nmolecular data slightly SLOWER with compression "
      "(29 -> 30.5 s, ~0.95x).\n");
  bench::write_results_json("headline_totals");
  return 0;
}
