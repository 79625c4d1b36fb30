#pragma once

#include <string>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "netsim/link.hpp"
#include "netsim/load_trace.hpp"

namespace acex::adaptive {

/// Scenario description for the §4.2 application experiments: stream a
/// dataset over an emulated, trace-loaded link and record what the
/// adaptive machinery does — the harness behind Figs. 8–12 and the
/// headline totals, shared by benches and tests.
struct ExperimentConfig {
  netsim::LinkParams link = netsim::fast_ethernet_link();
  /// Background load applied to the link (the paper's "MBone trace ...
  /// multiplied by a factor of 4"); empty = unloaded link.
  netsim::LoadTrace background;
  AdaptiveConfig adaptive;
  std::uint64_t seed = 1;

  /// Producer pacing: virtual seconds between successive block
  /// submissions. The paper's application experiments stream transactions
  /// at an application rate across the 160 s trace rather than saturating
  /// the link; 0 (default) submits blocks back-to-back.
  Seconds pace = 0;
  /// Emulated reverse path for acks/control (fast and symmetric is fine;
  /// the paper's links are full duplex).
  netsim::LinkParams reverse_link = netsim::fast_ethernet_link();

  /// When false, the sender's adaptation context (reducing-speed monitor,
  /// bandwidth estimate, sampler drift) is reset before every block, and
  /// each block is planned from an inline sample of itself — the per-
  /// block-reset streaming variant context_takeover=false names. Decisions
  /// then run every block on first-block assumptions; the scenario matrix
  /// uses this to measure what the carried context is actually worth.
  bool context_takeover = true;
};

/// One policy's end-to-end outcome on a scenario.
struct ExperimentResult {
  std::string policy;  ///< "adaptive", "none", "lempel-ziv", ...
  StreamReport stream;
  bool verified = false;  ///< receiver reassembled exactly the input

  /// Receiver CPU time spent decompressing, on the emulated-host scale
  /// (measured wall time / cpu_scale). Not part of stream.total_seconds —
  /// on real deployments decompression overlaps reception — but the
  /// "Global Time" column of Fig. 1 is total + this.
  Seconds receiver_decompress_seconds = 0;

  Seconds global_seconds() const noexcept {
    return stream.total_seconds + receiver_decompress_seconds;
  }
};

/// Run the adaptive policy on `data` under `config`; the returned stream's
/// BlockReports carry (virtual) timestamps, chosen methods, compression
/// times, and wire sizes — i.e. the series plotted in Figs. 8, 9, 10.
ExperimentResult run_adaptive(ByteView data, const ExperimentConfig& config);

/// Run a fixed-method baseline on the same scenario.
ExperimentResult run_fixed(ByteView data, const ExperimentConfig& config,
                           MethodId method);

/// Adaptive plus the standard baselines (none / LZ / BW), in that order —
/// the comparison the paper's §5 headline numbers summarize.
std::vector<ExperimentResult> run_policy_comparison(
    ByteView data, const ExperimentConfig& config);

/// The cpu_scale that makes THIS machine's Lempel-Ziv reducing speed on
/// `sample` equal `target_reducing_Bps` — how experiments emulate the
/// paper's 2003-era hosts (Fig. 4 measured LZ at ~3.5 MB/s on the
/// Sun-Fire-280R; a modern CPU is an order of magnitude faster, which
/// would silently shift every regime boundary). Measures LZ over the
/// sample (up to 512 KiB of it) in real time.
double cpu_scale_for_lz_speed(ByteView sample, double target_reducing_Bps);

/// Fig. 4's Sun-Fire LZ reducing speed, the usual calibration target.
inline constexpr double kPaperLzReducingBps = 3.5e6;

}  // namespace acex::adaptive
