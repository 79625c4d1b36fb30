#include <cmath>
#include <optional>

#include "adaptive/pipeline.hpp"
#include "adaptive/sampler.hpp"
#include "compress/frame.hpp"
#include "util/clock.hpp"
#include "util/crc32.hpp"
#include "workloads.hpp"

namespace acexbench {
namespace {

/// A link in virtual time: send() costs no wall time, it only advances the
/// link clock by bytes / rate, so the sender's bandwidth estimate sees the
/// workload's rate while the probe times only CPU work.
class VirtualLink final : public acex::transport::Transport {
 public:
  explicit VirtualLink(std::function<double(std::uint64_t)> rate_of)
      : rate_of_(std::move(rate_of)) {}

  void send(ByteView message) override {
    clock_.advance(static_cast<double>(message.size()) / rate_of_(sent_++));
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const acex::Clock& clock() const override { return clock_; }

 private:
  std::function<double(std::uint64_t)> rate_of_;
  acex::VirtualClock clock_;
  std::uint64_t sent_ = 0;
};

}  // namespace

PlanProbe probe_plan(const std::vector<ByteView>& blocks, std::size_t passes,
                     const std::function<double(std::uint64_t)>& rate_of) {
  VirtualLink link(rate_of);
  acex::adaptive::AdaptiveConfig config;
  config.async_sampling = false;
  config.decision.block_size = blocks.front().size();
  config.initial_bandwidth_Bps = rate_of(0);
  acex::adaptive::AdaptiveSender sender(link, config);
  acex::adaptive::Sampler sampler(config.decision.sample_size);

  double sample_s = 0;
  double plan_s = 0;
  std::size_t n = 0;
  std::vector<double> errors;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const ByteView block : blocks) {
      double t = now_s();
      const acex::adaptive::SampleResult sample = sampler.sample(block);
      sample_s += now_s() - t;
      t = now_s();
      const acex::adaptive::BlockPlan plan = sender.plan_block_sampled(block, sample);
      plan_s += now_s() - t;
      ++n;
      const double throughput = sender.monitor().throughput_or(plan.method, 0);
      acex::adaptive::EncodeResult enc = acex::adaptive::encode_block(
          sender.registry(), block, plan.method, plan.sequence,
          config.expansion_slack_bytes);
      if (plan.method != MethodId::kNone && throughput > 0 && !enc.fallback &&
          enc.encode_seconds > 0) {
        const double predicted = static_cast<double>(block.size()) / throughput;
        errors.push_back(100.0 * std::abs(predicted - enc.encode_seconds) /
                         enc.encode_seconds);
      }
      sender.finish_block(plan, block.size(), std::move(enc));
    }
  }
  PlanProbe probe;
  probe.sample_us_per_block = 1e6 * sample_s / static_cast<double>(n);
  probe.plan_us_per_block = 1e6 * plan_s / static_cast<double>(n);
  probe.cpu_estimate_err_pct = median(errors);
  return probe;
}

double probe_crc32_mbps(const std::vector<ByteView>& blocks) {
  std::uint64_t bytes = 0;
  std::uint32_t sink = 0;
  const double start = now_s();
  do {
    for (const ByteView block : blocks) {
      sink ^= acex::crc32(block);
      bytes += block.size();
    }
  } while (now_s() - start < 0.1);
  const double elapsed = now_s() - start;
  volatile std::uint32_t keep = sink;  // keeps the loop from being elided
  (void)keep;
  return static_cast<double>(bytes) / 1e6 / elapsed;
}

double probe_frame_us(const std::vector<ByteView>& blocks) {
  std::vector<std::uint32_t> crcs;
  for (const ByteView block : blocks) crcs.push_back(acex::crc32(block));
  std::size_t frames = 0;
  std::size_t sink = 0;
  const double start = now_s();
  do {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      sink += acex::frame_build_seq(MethodId::kNone, blocks[i], crcs[i], frames).size();
      ++frames;
    }
  } while (now_s() - start < 0.1);
  const double elapsed = now_s() - start;
  volatile std::size_t keep = sink;
  (void)keep;
  return 1e6 * elapsed / static_cast<double>(frames);
}

void add_layer_probes(Outcome& out, const std::vector<ByteView>& blocks,
                      const std::function<double(std::uint64_t)>& rate_of) {
  const PlanProbe plan = probe_plan(blocks, 1, rate_of);
  out.add("adaptive.sample_us_per_block", plan.sample_us_per_block, "us");
  out.add("adaptive.plan_us_per_block", plan.plan_us_per_block, "us");
  out.add("adaptive.cpu_estimate_err_pct", plan.cpu_estimate_err_pct, "%");
  out.add("compress.crc32_MBps", probe_crc32_mbps(blocks), "MB/s");
  out.add("compress.frame_us_per_block", probe_frame_us(blocks), "us");
}

double switches_per_100(const std::vector<MethodId>& methods) {
  if (methods.size() < 2) return 0;
  std::size_t switches = 0;
  for (std::size_t i = 1; i < methods.size(); ++i) {
    if (methods[i] != methods[i - 1]) ++switches;
  }
  return 100.0 * static_cast<double>(switches) / static_cast<double>(methods.size());
}

}  // namespace acexbench
