// End-to-end tests of the adaptive sender/receiver over emulated links,
// including the integration shapes the paper's §4.2 experiments rely on.

#include <gtest/gtest.h>

#include <set>

#include "adaptive/experiment.hpp"
#include "adaptive/pipeline.hpp"
#include "netsim/load_trace.hpp"
#include "testdata.hpp"
#include "transport/sim_transport.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"

namespace acex::adaptive {
namespace {

netsim::LinkParams flat_link(double bps) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bps;
  p.jitter_frac = 0;
  p.latency_s = 0;
  return p;
}

AdaptiveConfig sync_config() {
  AdaptiveConfig config;
  config.async_sampling = false;  // deterministic
  return config;
}

class PipelineTest : public ::testing::Test {
 protected:
  void wire(double bps) {
    forward_.emplace(flat_link(bps), 1);
    reverse_.emplace(flat_link(1e9), 2);
    duplex_.emplace(*forward_, *reverse_, clock_);
  }

  VirtualClock clock_;
  std::optional<netsim::SimLink> forward_, reverse_;
  std::optional<transport::SimDuplex> duplex_;
};

TEST_F(PipelineTest, RoundTripsDataExactly) {
  wire(1e6);
  AdaptiveSender sender(duplex_->a(), sync_config());
  AdaptiveReceiver receiver(duplex_->b());

  workloads::TransactionGenerator gen(1);
  const Bytes data = gen.text_block(700 * 1024);  // ~6 blocks
  const StreamReport report = sender.send_all(data);
  EXPECT_EQ(report.original_bytes, data.size());
  EXPECT_EQ(report.blocks.size(), 6u);

  EXPECT_EQ(receiver.receive_available(), data);
  EXPECT_EQ(receiver.frames_received(), 6u);
}

TEST_F(PipelineTest, SlowLinkCompressesCommercialData) {
  wire(100e3);  // 100 KB/s: sending dominates
  AdaptiveSender sender(duplex_->a(), sync_config());
  workloads::TransactionGenerator gen(2);
  const Bytes data = gen.text_block(512 * 1024);
  const StreamReport report = sender.send_all(data);

  // Wire traffic must shrink substantially and every block after warm-up
  // must use a compressing method.
  EXPECT_LT(report.wire_ratio_percent(), 50.0);
  for (std::size_t i = 1; i < report.blocks.size(); ++i) {
    EXPECT_NE(report.blocks[i].method, MethodId::kNone) << "block " << i;
  }
}

TEST_F(PipelineTest, FastLinkStopsCompressing) {
  wire(1e9);  // ~gigabit: compression cannot pay
  AdaptiveConfig config = sync_config();
  config.initial_bandwidth_Bps = 1e9;  // trust the fast link immediately
  AdaptiveSender sender(duplex_->a(), config);
  workloads::TransactionGenerator gen(3);
  const Bytes data = gen.text_block(1024 * 1024);
  const StreamReport report = sender.send_all(data);

  std::size_t uncompressed = 0;
  for (const auto& b : report.blocks) {
    uncompressed += b.method == MethodId::kNone;
  }
  // All but (possibly) the very first warm-up block should pass through.
  EXPECT_GE(uncompressed, report.blocks.size() - 1);
}

TEST_F(PipelineTest, IncompressibleDataPrefersHuffmanOrNone) {
  wire(50e3);
  AdaptiveSender sender(duplex_->a(), sync_config());
  const Bytes data = testdata::random_bytes(512 * 1024, 4);
  const StreamReport report = sender.send_all(data);
  for (std::size_t i = 1; i < report.blocks.size(); ++i) {
    const MethodId m = report.blocks[i].method;
    EXPECT_TRUE(m == MethodId::kHuffman || m == MethodId::kNone)
        << "block " << i << " chose " << method_name(m);
  }
  // Random data + stored fallbacks: wire size stays near the original.
  EXPECT_NEAR(report.wire_ratio_percent(), 100.0, 2.0);
}

TEST_F(PipelineTest, ReportsAreInternallyConsistent) {
  wire(1e6);
  AdaptiveSender sender(duplex_->a(), sync_config());
  workloads::TransactionGenerator gen(5);
  const Bytes data = gen.text_block(300 * 1024);
  const StreamReport report = sender.send_all(data);

  Seconds prev_delivered = 0;
  for (const auto& b : report.blocks) {
    EXPECT_GE(b.submitted, prev_delivered);  // FIFO on one link
    EXPECT_GE(b.delivered, b.submitted);
    EXPECT_GT(b.wire_size, 0u);
    EXPECT_GT(b.bandwidth_estimate_Bps, 0.0);
    EXPECT_NEAR(b.send_seconds, b.delivered - b.submitted, 1e-9);
    prev_delivered = b.delivered;
  }
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GE(report.compress_seconds, 0.0);
}

TEST_F(PipelineTest, CpuTimeHookChargesVirtualClock) {
  wire(1e6);
  AdaptiveConfig config = sync_config();
  Seconds charged = 0;
  config.on_cpu_time = [&](Seconds t) {
    charged += t;
    clock_.advance(t);
  };
  AdaptiveSender sender(duplex_->a(), config);
  workloads::TransactionGenerator gen(6);
  sender.send_all(gen.text_block(256 * 1024));
  EXPECT_GT(charged, 0.0);
  EXPECT_GE(clock_.now(), charged);
}

TEST_F(PipelineTest, CpuScaleSlowsReportedCompression) {
  wire(1e6);
  workloads::TransactionGenerator gen(7);
  const Bytes data = gen.text_block(256 * 1024);

  AdaptiveConfig fast = sync_config();
  AdaptiveConfig slow = sync_config();
  slow.cpu_scale = 0.25;  // a 4x slower host

  wire(1e6);
  AdaptiveSender fast_sender(duplex_->a(), fast);
  const auto fast_report = fast_sender.send_all_fixed(data, MethodId::kLempelZiv);
  wire(1e6);
  AdaptiveSender slow_sender(duplex_->a(), slow);
  const auto slow_report = slow_sender.send_all_fixed(data, MethodId::kLempelZiv);

  EXPECT_GT(slow_report.compress_seconds,
            fast_report.compress_seconds * 2.0);
}

TEST_F(PipelineTest, FixedPolicyUsesRequestedMethodEverywhere) {
  wire(1e6);
  AdaptiveSender sender(duplex_->a(), sync_config());
  workloads::TransactionGenerator gen(8);
  const Bytes data = gen.text_block(300 * 1024);
  const StreamReport report =
      sender.send_all_fixed(data, MethodId::kBurrowsWheeler);
  for (const auto& b : report.blocks) {
    EXPECT_EQ(b.method, MethodId::kBurrowsWheeler);
  }
  AdaptiveReceiver receiver(duplex_->b());
  EXPECT_EQ(receiver.receive_available(), data);
}

TEST_F(PipelineTest, OversizedBlockRejected) {
  wire(1e6);
  AdaptiveSender sender(duplex_->a(), sync_config());
  const Bytes big(sender.config().decision.block_size + 1, 0);
  EXPECT_THROW(sender.plan_block(big), ConfigError);
}

TEST_F(PipelineTest, AsyncSamplingMatchesSyncDecisionsOnSteadyData) {
  // Same data, same links: async sampling must reach the same methods on a
  // steady workload (timing jitter only affects measured speeds slightly).
  workloads::TransactionGenerator gen(9);
  const Bytes data = gen.text_block(512 * 1024);

  wire(100e3);
  AdaptiveSender sync_sender(duplex_->a(), sync_config());
  const auto sync_report = sync_sender.send_all(data);

  AdaptiveConfig async_cfg;
  async_cfg.async_sampling = true;
  wire(100e3);
  AdaptiveSender async_sender(duplex_->a(), async_cfg);
  const auto async_report = async_sender.send_all(data);

  ASSERT_EQ(sync_report.blocks.size(), async_report.blocks.size());
  std::size_t agreements = 0;
  for (std::size_t i = 0; i < sync_report.blocks.size(); ++i) {
    agreements +=
        sync_report.blocks[i].method == async_report.blocks[i].method;
  }
  EXPECT_GE(agreements, sync_report.blocks.size() - 1);
}

/// Blocks of 4 KiB whose samples all differ: block i opens with i * 512
/// zero bytes and continues with noise.
Bytes stepped_blocks(std::size_t count) {
  Bytes data;
  for (std::size_t i = 0; i < count; ++i) {
    const Bytes noise = testdata::random_bytes(4096 - i * 512, 70 + i);
    data.insert(data.end(), i * 512, 0);
    data.insert(data.end(), noise.begin(), noise.end());
  }
  return data;
}

AdaptiveConfig stepped_config(bool async_sampling) {
  AdaptiveConfig config;
  config.async_sampling = async_sampling;
  config.decision.block_size = 4096;
  config.decision.sample_size = 4096;
  return config;
}

TEST_F(PipelineTest, RawOnlyGovernorShipsRawFramesWithoutSampling) {
  // A governor that leaves only the null codec makes every sample moot:
  // send_all neither takes nor launches one, and the frames are the ones
  // a sampled plan that the governor overrode would have shipped.
  const std::size_t kBlocks = 6;
  const Bytes data = stepped_blocks(kBlocks);
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async sampling" : "inline sampling");
    wire(1e6);
    AdaptiveConfig config = stepped_config(async);
    config.method_governor = [](MethodId) { return MethodId::kNone; };
    AdaptiveSender sender(duplex_->a(), config);
    EXPECT_TRUE(sender.raw_only());
    const StreamReport report = sender.send_all(data);
    ASSERT_EQ(report.blocks.size(), kBlocks);
    clock_.advance(60.0);
    for (std::size_t i = 0; i < kBlocks; ++i) {
      const ByteView block = ByteView(data).subspan(i * 4096, 4096);
      EXPECT_EQ(report.blocks[i].method, MethodId::kNone);
      EXPECT_EQ(report.blocks[i].sampled_ratio_percent,
                BlockReport{}.sampled_ratio_percent)
          << "block " << i;
      const std::optional<Bytes> frame = duplex_->b().receive();
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(*frame,
                frame_build_seq(MethodId::kNone, block, crc32(block), i))
          << "block " << i;
    }
  }
}

TEST_F(PipelineTest, GovernorReopeningMidStreamPlansFromARealSample) {
  // The governor leaves only kNone for block 2 and is open around it.
  // Under async sampling block 1 has already launched block 2's sample;
  // it must be dropped, so block 3 plans from its own sample, never from
  // block 2's.
  const std::size_t kBlocks = 6;
  const Bytes data = stepped_blocks(kBlocks);
  const Sampler sampler(4096);
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async sampling" : "inline sampling");
    wire(1e6);
    AdaptiveConfig config = stepped_config(async);
    std::size_t finished = 0;  // one worker: block i plans after i finishes
    config.on_cpu_time = [&finished](Seconds) { ++finished; };
    config.method_governor = [&finished](MethodId m) {
      return finished == 2 ? MethodId::kNone : m;
    };
    AdaptiveSender sender(duplex_->a(), config);
    const StreamReport report = sender.send_all(data);
    ASSERT_EQ(report.blocks.size(), kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i) {
      const double expected =
          i == 2 ? BlockReport{}.sampled_ratio_percent
                 : sampler.sample(ByteView(data).subspan(i * 4096, 4096))
                       .ratio_percent;
      EXPECT_EQ(report.blocks[i].sampled_ratio_percent, expected)
          << "block " << i;
    }
    EXPECT_EQ(report.blocks[2].method, MethodId::kNone);
  }
}

// ------------------------------------------------------------- experiments

TEST(Experiment, AdaptiveBeatsNoCompressionOnSlowLink) {
  // The §5 headline shape: repetitive commercial data over a slow/loaded
  // link — adaptive finishes in a fraction of the raw transfer time.
  workloads::TransactionGenerator gen(10);
  const Bytes data = gen.text_block(1024 * 1024);

  ExperimentConfig config;
  config.link = netsim::megabit_link();  // 0.147 MB/s end-to-end
  config.link.jitter_frac = 0.0;
  config.adaptive.async_sampling = false;

  const auto adaptive = run_adaptive(data, config);
  const auto raw = run_fixed(data, config, MethodId::kNone);
  ASSERT_TRUE(adaptive.verified);
  ASSERT_TRUE(raw.verified);
  EXPECT_LT(adaptive.stream.total_seconds, raw.stream.total_seconds * 0.6);
  EXPECT_LT(adaptive.stream.wire_ratio_percent(), 50.0);
}

TEST(Experiment, MethodsEscalateWithRisingLoad) {
  // Fig. 8's shape: no compression at first, stronger methods as the load
  // ramps. Needs the paper's CPU-to-link ratio: emulate a Sun-Fire-class
  // host (LZ reducing speed ~3.5 MB/s) against the 100 Mb link.
  workloads::TransactionGenerator gen(11);
  const Bytes data = gen.text_block(6 * 1024 * 1024);

  ExperimentConfig config;
  // Quiet (0 connections) -> moderate (60: link at ~40 %) -> saturated
  // (95: link at its 5 % floor). Raw 128 KiB blocks leave every ~20 ms on
  // the quiet link, so the quiet phase covers about the first 15 blocks.
  // Each block's encode + CRC time also advances the virtual clock, so a
  // cheaper block reaches t = 0.8 s later in the stream; the 48-block
  // stream leaves BW room to catch up on the saturated link whatever the
  // per-block CPU cost.
  config.background = netsim::LoadTrace({{0, 0}, {0.3, 60}, {0.8, 95}});
  config.link.jitter_frac = 0.0;
  config.adaptive.async_sampling = false;
  config.adaptive.initial_bandwidth_Bps = config.link.bandwidth_Bps;
  config.adaptive.cpu_scale = cpu_scale_for_lz_speed(data, kPaperLzReducingBps);

  const auto result = run_adaptive(data, config);
  ASSERT_TRUE(result.verified);

  std::set<MethodId> seen;
  for (const auto& b : result.stream.blocks) seen.insert(b.method);
  EXPECT_TRUE(seen.count(MethodId::kNone)) << "quiet phase missing";
  EXPECT_TRUE(seen.count(MethodId::kLempelZiv)) << "moderate phase missing";
  EXPECT_TRUE(seen.count(MethodId::kBurrowsWheeler))
      << "saturated phase missing";

  // The quiet phase dominates the early blocks (a couple of warm-up blocks
  // may compress while the speed estimators converge).
  std::size_t early_raw = 0;
  for (std::size_t i = 0; i < 15 && i < result.stream.blocks.size(); ++i) {
    early_raw += result.stream.blocks[i].method == MethodId::kNone;
  }
  EXPECT_GE(early_raw, 10u);
}

TEST(Experiment, MolecularDataMostlyAvoidsLzAndBw) {
  // Fig. 11's shape: coordinates dominate the snapshot bytes, so most
  // blocks go to Huffman (or stay raw), not LZ/BW.
  workloads::MolecularConfig mconfig;
  mconfig.atom_count = 8192;
  workloads::MolecularGenerator gen(mconfig);
  const Bytes data = gen.stream(8);

  ExperimentConfig config;
  config.background = netsim::mbone_trace().scaled(4.0);
  config.adaptive.async_sampling = false;

  const auto result = run_adaptive(data, config);
  ASSERT_TRUE(result.verified);
  std::size_t order0_blocks = 0;
  for (const auto& b : result.stream.blocks) {
    order0_blocks += b.method == MethodId::kHuffman ||
                     b.method == MethodId::kNone;
  }
  EXPECT_GT(order0_blocks, result.stream.blocks.size() / 2);
}

TEST(Experiment, PolicyComparisonProducesAllFour) {
  workloads::TransactionGenerator gen(12);
  const Bytes data = gen.text_block(512 * 1024);
  ExperimentConfig config;
  config.adaptive.async_sampling = false;
  const auto results = run_policy_comparison(data, config);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].policy, "adaptive");
  EXPECT_EQ(results[1].policy, "none");
  EXPECT_EQ(results[2].policy, "lempel-ziv");
  EXPECT_EQ(results[3].policy, "burrows-wheeler");
  for (const auto& r : results) {
    EXPECT_TRUE(r.verified) << r.policy;
    EXPECT_EQ(r.stream.original_bytes, data.size()) << r.policy;
  }
}

TEST(Experiment, PacedAndPerBlockResetFixedRunsShipTheUnpacedFrames) {
  // Paced and context_takeover=false runs send one block per send_all
  // call. With a fixed method they must put the unpaced run's frames on
  // the wire: per block the same sequence, method and framed size — the
  // size of an independent encode_block() of that block — and a receiver
  // that reassembles the input.
  workloads::TransactionGenerator gen(14);
  const Bytes data = gen.text_block(5 * 16 * 1024 + 3000);  // short tail
  ExperimentConfig config;
  config.adaptive.decision.block_size = 16 * 1024;
  config.adaptive.async_sampling = false;
  ExperimentConfig paced = config;
  paced.pace = 0.05;
  ExperimentConfig reset = config;
  reset.context_takeover = false;

  const ExperimentResult base = run_fixed(data, config, MethodId::kLempelZiv);
  const ExperimentResult paced_run =
      run_fixed(data, paced, MethodId::kLempelZiv);
  const ExperimentResult reset_run =
      run_fixed(data, reset, MethodId::kLempelZiv);
  ASSERT_TRUE(base.verified);
  ASSERT_EQ(base.stream.blocks.size(), 6u);
  const CodecRegistry registry = CodecRegistry::with_builtins();
  for (const ExperimentResult* run : {&paced_run, &reset_run}) {
    EXPECT_TRUE(run->verified);
    ASSERT_EQ(run->stream.blocks.size(), base.stream.blocks.size());
    for (std::size_t i = 0; i < base.stream.blocks.size(); ++i) {
      const BlockReport& got = run->stream.blocks[i];
      const std::size_t off = i * 16 * 1024;
      const ByteView block = ByteView(data).subspan(
          off, std::min<std::size_t>(16 * 1024, data.size() - off));
      const EncodeResult want = encode_block(
          registry, block, MethodId::kLempelZiv, i,
          config.adaptive.expansion_slack_bytes, /*allow_degrade=*/false);
      EXPECT_EQ(got.index, i);
      EXPECT_EQ(got.method, MethodId::kLempelZiv);
      EXPECT_EQ(got.original_size, block.size());
      EXPECT_EQ(got.wire_size, want.framed.size()) << "block " << i;
      EXPECT_EQ(got.wire_size, base.stream.blocks[i].wire_size);
    }
    EXPECT_EQ(run->stream.wire_bytes, base.stream.wire_bytes);
  }
  // Pacing holds each block back until its slot on the virtual clock.
  for (std::size_t i = 0; i < paced_run.stream.blocks.size(); ++i) {
    EXPECT_GE(paced_run.stream.blocks[i].submitted,
              static_cast<double>(i) * paced.pace);
  }
}

TEST(Experiment, UnloadedGigabitPrefersRawTransfer) {
  // §4.1's conclusion: "On a local fast communication link ... compression
  // should not be used at all."
  workloads::TransactionGenerator gen(13);
  const Bytes data = gen.text_block(1024 * 1024);
  ExperimentConfig config;
  config.link = netsim::gigabit_link();
  config.adaptive.async_sampling = false;
  config.adaptive.initial_bandwidth_Bps = config.link.bandwidth_Bps;
  config.adaptive.cpu_scale = cpu_scale_for_lz_speed(data, kPaperLzReducingBps);

  const auto result = run_adaptive(data, config);
  ASSERT_TRUE(result.verified);
  std::size_t raw_blocks = 0;
  for (const auto& b : result.stream.blocks) {
    raw_blocks += b.method == MethodId::kNone;
  }
  EXPECT_GE(raw_blocks, result.stream.blocks.size() - 1);
}

}  // namespace
}  // namespace acex::adaptive
