// Operational information system feed: the paper's commercial workload
// ([2], an airline operations system) streamed over a corporate 100 Mb
// intranet whose load follows the MBone trace — the exact setting of
// Figs. 8-10, driven through the high-level experiment API.
//
// Watch the selector walk through its regimes as the load ramps:
// no compression -> Lempel-Ziv -> Burrows-Wheeler -> back.
//
// Run: ./build/examples/ois_feed  (exits 1 unless the receiver reassembled
// the feed byte for byte)

#include <cstdio>
#include <string>

#include "adaptive/experiment.hpp"
#include "adaptive/telemetry.hpp"
#include "echo/channel.hpp"
#include "netsim/load_trace.hpp"
#include "workloads/transactions.hpp"

int main() {
  using namespace acex;

  // 80 one-second blocks against a time-compressed MBone trace.
  workloads::TransactionGenerator gen(99);
  const Bytes feed = gen.text_block(80 * 128 * 1024);

  adaptive::ExperimentConfig config;
  config.link = netsim::fast_ethernet_link();
  config.link.share_per_connection = 0.014;
  config.background = netsim::mbone_trace().scaled(4.0).time_scaled(0.5);
  config.pace = 1.0;
  config.adaptive.async_sampling = false;
  config.adaptive.initial_bandwidth_Bps = config.link.bandwidth_Bps;
  config.adaptive.cpu_scale = adaptive::cpu_scale_for_lz_speed(
      feed, adaptive::kPaperLzReducingBps);

  std::printf("streaming the OIS feed (one 128 KiB block per second)...\n\n");
  const auto result = run_adaptive(feed, config);

  std::printf("%8s  %6s  %-16s  %10s  %s\n", "time(s)", "load", "method",
              "wire", "link pressure");
  for (const auto& b : result.stream.blocks) {
    const double load = config.background.value_at(b.submitted);
    const auto bars = static_cast<std::size_t>(load / 4);
    std::printf("%8.1f  %6.0f  %-16s  %10zu  %s\n", b.submitted, load,
                std::string(method_name(b.method)).c_str(), b.wire_size,
                std::string(bars, '#').c_str());
  }

  std::printf("\n%zu blocks, %.1f %% of raw bytes on the wire, verified=%s\n",
              result.stream.blocks.size(),
              result.stream.wire_ratio_percent(),
              result.verified ? "yes" : "NO");

  // Operations view: replay the run's measurements through the telemetry
  // channel (attribute-borne, bridgeable) into a dashboard aggregate.
  echo::EventChannel telemetry("ois.telemetry");
  adaptive::TelemetryAggregator dashboard;
  telemetry.subscribe(
      [&dashboard](const echo::Event& e) { dashboard.observe(e); });
  adaptive::TelemetryPublisher publisher(telemetry);
  for (const auto& b : result.stream.blocks) publisher.publish(b);
  publisher.publish_summary(result.stream);

  std::printf("telemetry dashboard: %llu blocks;",
              static_cast<unsigned long long>(dashboard.blocks()));
  for (const auto& [method, count] : dashboard.method_counts()) {
    std::printf("  %s=%llu", method.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("  (wire %.1f %%)\n", dashboard.wire_ratio_percent());
  return result.verified ? 0 : 1;
}
