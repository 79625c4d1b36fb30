#include <gtest/gtest.h>

#include "adaptive/calibrator.hpp"
#include "adaptive/decision.hpp"
#include "adaptive/echo_integration.hpp"
#include "adaptive/monitor.hpp"
#include "adaptive/sampler.hpp"
#include "echo/bus.hpp"
#include "testdata.hpp"
#include "util/error.hpp"
#include "workloads/transactions.hpp"

namespace acex::adaptive {
namespace {

// ---------------------------------------------------------------- decision

TEST(Decision, FastLinkChoosesNoCompression) {
  // Sending is much faster than reducing: don't compress (1 Gb intranet).
  SelectionInputs in;
  in.send_seconds = 0.001;
  in.lz_reduce_seconds = 0.05;
  in.sampled_ratio_percent = 30.0;
  EXPECT_EQ(decide(in, {}), MethodId::kNone);
}

TEST(Decision, SlowLinkCompressibleDataChoosesLempelZiv) {
  SelectionInputs in;
  in.send_seconds = 0.10;  // between alpha (0.83) and beta (3.48) x reduce
  in.lz_reduce_seconds = 0.05;
  in.sampled_ratio_percent = 30.0;
  EXPECT_EQ(decide(in, {}), MethodId::kLempelZiv);
}

TEST(Decision, VerySlowLinkEscalatesToBurrowsWheeler) {
  SelectionInputs in;
  in.send_seconds = 0.5;  // > 3.48 x 0.05
  in.lz_reduce_seconds = 0.05;
  in.sampled_ratio_percent = 30.0;
  EXPECT_EQ(decide(in, {}), MethodId::kBurrowsWheeler);
}

TEST(Decision, IncompressibleDataFallsBackToHuffman) {
  SelectionInputs in;
  in.send_seconds = 0.5;
  in.lz_reduce_seconds = 0.05;
  in.sampled_ratio_percent = 80.0;  // above the 48.78 % cut
  EXPECT_EQ(decide(in, {}), MethodId::kHuffman);
}

TEST(Decision, FirstBlockInfinityAssumptionPicksStrongestMethod) {
  // "Assume the reducing size speed of first block is infinity":
  // lz_reduce_seconds = 0 passes BOTH the alpha and beta gates, so the
  // paper's pseudocode starts compressible data on Burrows-Wheeler until
  // real measurements arrive.
  SelectionInputs in;
  in.send_seconds = 1e-6;
  in.lz_reduce_seconds = 0;
  in.sampled_ratio_percent = 30.0;
  EXPECT_EQ(decide(in, {}), MethodId::kBurrowsWheeler);
  in.sampled_ratio_percent = 60.0;  // incompressible start: Huffman
  EXPECT_EQ(decide(in, {}), MethodId::kHuffman);
}

TEST(Decision, ThresholdBoundariesAreExact) {
  DecisionParams p;  // alpha 0.83, beta 3.48
  SelectionInputs in;
  in.lz_reduce_seconds = 1.0;
  in.sampled_ratio_percent = 10.0;

  in.send_seconds = 0.83;  // not strictly greater: no compression
  EXPECT_EQ(decide(in, p), MethodId::kNone);
  in.send_seconds = 0.8301;
  EXPECT_EQ(decide(in, p), MethodId::kLempelZiv);
  in.send_seconds = 3.48;
  EXPECT_EQ(decide(in, p), MethodId::kLempelZiv);
  in.send_seconds = 3.4801;
  EXPECT_EQ(decide(in, p), MethodId::kBurrowsWheeler);
}

TEST(Decision, RatioCutBoundary) {
  DecisionParams p;
  SelectionInputs in;
  in.send_seconds = 1.0;
  in.lz_reduce_seconds = 0.5;
  in.sampled_ratio_percent = 48.78;  // not strictly below: Huffman
  EXPECT_EQ(decide(in, p), MethodId::kHuffman);
  in.sampled_ratio_percent = 48.77;
  EXPECT_EQ(decide(in, p), MethodId::kLempelZiv);
}

TEST(Decision, ParamValidation) {
  DecisionParams p;
  p.alpha = 0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = {};
  p.beta = 0.5;  // < alpha
  EXPECT_THROW(p.validate(), ConfigError);
  p = {};
  p.ratio_cut_percent = 0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = {};
  p.sample_size = p.block_size + 1;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(Figure1Table, MatchesPublishedRatings) {
  const auto& table = figure1_table();
  ASSERT_EQ(table.size(), 4u);
  // Spot-check the published cells.
  EXPECT_EQ(table[0].method, MethodId::kBurrowsWheeler);
  EXPECT_EQ(table[0].efficiency, Rating::kExcellent);
  EXPECT_EQ(table[0].compress_time, Rating::kPoor);
  EXPECT_EQ(table[3].method, MethodId::kHuffman);
  EXPECT_EQ(table[3].compress_time, Rating::kExcellent);
  EXPECT_EQ(table[3].efficiency, Rating::kPoor);
  EXPECT_EQ(table[2].method, MethodId::kArithmetic);
  EXPECT_EQ(table[2].global_time, Rating::kPoor);
}

TEST(Figure1Table, BucketRatingOrdersValues) {
  EXPECT_EQ(bucket_rating(100, 100, 1, true), Rating::kExcellent);
  EXPECT_EQ(bucket_rating(1, 100, 1, true), Rating::kPoor);
  EXPECT_EQ(bucket_rating(1, 100, 1, false), Rating::kExcellent);
  EXPECT_EQ(bucket_rating(50, 100, 1, true) >= Rating::kSatisfactory, true);
}

// ----------------------------------------------------------------- sampler

TEST(Sampler, MeasuresRatioOnCompressibleData) {
  Sampler sampler(4096);
  const Bytes block = testdata::repetitive_text(128 * 1024, 1);
  const SampleResult s = sampler.sample(block);
  EXPECT_EQ(s.sample_bytes, 4096u);
  EXPECT_LT(s.ratio_percent, 48.0);
  EXPECT_GT(s.reducing_speed, 0.0);
  EXPECT_GT(s.throughput, 0.0);
}

TEST(Sampler, RandomDataReportsNoReduction) {
  Sampler sampler(4096);
  const SampleResult s = sampler.sample(testdata::random_bytes(8192, 2));
  EXPECT_GE(s.ratio_percent, 99.0);
  EXPECT_DOUBLE_EQ(s.reducing_speed, 0.0);
}

TEST(Sampler, ShortBlockSamplesWhatExists) {
  Sampler sampler(4096);
  const SampleResult s = sampler.sample(testdata::repetitive_text(100, 3));
  EXPECT_EQ(s.sample_bytes, 100u);
}

TEST(Sampler, EmptyBlockIsNeutral) {
  Sampler sampler(4096);
  const SampleResult s = sampler.sample(Bytes{});
  EXPECT_EQ(s.sample_bytes, 0u);
  EXPECT_DOUBLE_EQ(s.ratio_percent, 100.0);
}

TEST(Sampler, AsyncLaunchMatchesSyncResultShape) {
  Sampler sampler(4096);
  const Bytes block = testdata::repetitive_text(64 * 1024, 4);
  sampler.launch(block);
  EXPECT_TRUE(sampler.pending());
  const auto async_result = sampler.wait();
  ASSERT_TRUE(async_result.has_value());
  const SampleResult sync_result = sampler.sample(block);
  EXPECT_EQ(async_result->sample_bytes, sync_result.sample_bytes);
  EXPECT_DOUBLE_EQ(async_result->ratio_percent, sync_result.ratio_percent);

  // A second cycle on the same Sampler, on a block of its own.
  EXPECT_FALSE(sampler.pending());
  const Bytes next = testdata::repetitive_text(2048, 5);
  sampler.launch(next);
  EXPECT_TRUE(sampler.pending());
  const auto second = sampler.wait();
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(sampler.pending());
  const SampleResult sync_next = sampler.sample(next);
  EXPECT_EQ(second->sample_bytes, 2048u);
  EXPECT_EQ(second->sample_bytes, sync_next.sample_bytes);
  EXPECT_DOUBLE_EQ(second->ratio_percent, sync_next.ratio_percent);
  EXPECT_GT(second->elapsed, 0.0);
}

TEST(Sampler, RatioPinnedOnCommercialPrefix) {
  // The sampled ratio is the one sample output every decision rule and
  // golden selection sequence reads exactly; only its timing may change.
  const Bytes block = workloads::TransactionGenerator(2004).text_block(16384);
  const SampleResult small = Sampler(1024).sample(block);
  EXPECT_EQ(small.sample_bytes, 1024u);
  EXPECT_DOUBLE_EQ(small.ratio_percent, 52.34375);  // 536 bytes
  const SampleResult paper = Sampler(4096).sample(block);
  EXPECT_EQ(paper.sample_bytes, 4096u);
  EXPECT_DOUBLE_EQ(paper.ratio_percent, 33.642578125);  // 1378 bytes
}

TEST(Sampler, WaitWithoutLaunchIsEmpty) {
  Sampler sampler;
  EXPECT_FALSE(sampler.pending());
  EXPECT_FALSE(sampler.wait().has_value());
}

TEST(Sampler, RejectsZeroPrefix) { EXPECT_THROW(Sampler(0), ConfigError); }

// ----------------------------------------------------------------- monitor

TEST(Monitor, NoSamplesMeansInfinitySemantics) {
  ReducingSpeedMonitor monitor;
  EXPECT_FALSE(monitor.has_sample(MethodId::kLempelZiv));
  EXPECT_DOUBLE_EQ(monitor.reduce_seconds(MethodId::kLempelZiv, 1 << 17), 0.0);
  EXPECT_DOUBLE_EQ(monitor.reducing_speed_or(MethodId::kLempelZiv, 7.0), 7.0);
}

TEST(Monitor, TracksReducingSpeed) {
  ReducingSpeedMonitor monitor;
  // 1000 -> 400 in 0.1 s: 6000 bytes removed per second.
  monitor.record(MethodId::kLempelZiv, 1000, 400, 0.1);
  EXPECT_NEAR(monitor.reducing_speed_or(MethodId::kLempelZiv, 0), 6000, 1);
  EXPECT_NEAR(monitor.reduce_seconds(MethodId::kLempelZiv, 6000), 1.0, 1e-6);
  EXPECT_NEAR(monitor.throughput_or(MethodId::kLempelZiv, 0), 10000, 1);
}

TEST(Monitor, ExpansionCountsAsZeroReduction) {
  ReducingSpeedMonitor monitor;
  monitor.record(MethodId::kHuffman, 1000, 1200, 0.1);
  EXPECT_DOUBLE_EQ(monitor.reducing_speed_or(MethodId::kHuffman, -1), 0.0);
}

TEST(Monitor, EwmaAdaptsToCpuLoadChange) {
  ReducingSpeedMonitor monitor(0.5);
  for (int i = 0; i < 10; ++i) {
    monitor.record(MethodId::kLempelZiv, 1000, 500, 0.001);  // fast CPU
  }
  const double fast = monitor.reducing_speed_or(MethodId::kLempelZiv, 0);
  for (int i = 0; i < 10; ++i) {
    monitor.record(MethodId::kLempelZiv, 1000, 500, 0.01);  // 10x slower
  }
  const double slow = monitor.reducing_speed_or(MethodId::kLempelZiv, 0);
  EXPECT_LT(slow, fast / 5);
}

TEST(Monitor, MethodsAreIndependent) {
  ReducingSpeedMonitor monitor;
  monitor.record(MethodId::kLempelZiv, 1000, 500, 0.1);
  EXPECT_TRUE(monitor.has_sample(MethodId::kLempelZiv));
  EXPECT_FALSE(monitor.has_sample(MethodId::kBurrowsWheeler));
  EXPECT_EQ(monitor.sample_count(MethodId::kLempelZiv), 1u);
}

TEST(Monitor, IgnoresNonPositiveElapsed) {
  ReducingSpeedMonitor monitor;
  monitor.record(MethodId::kLempelZiv, 1000, 500, 0.0);
  EXPECT_FALSE(monitor.has_sample(MethodId::kLempelZiv));
}

// -------------------------------------------------------------- calibrator

TEST(Calibrator, DerivesSaneConstantsFromCommercialData) {
  workloads::TransactionGenerator gen(1);
  const Bytes sample = gen.text_block(256 * 1024);
  const Calibrator calibrator;
  const CalibrationReport report = calibrator.calibrate(sample);

  // Structural sanity, not exact values: BW compresses harder than LZ,
  // beta sits above alpha, and the cut is in the plausible band.
  EXPECT_LT(report.bw_ratio_percent, report.lz_ratio_percent);
  EXPECT_GT(report.params.beta, report.params.alpha);
  EXPECT_GE(report.params.ratio_cut_percent, 30.0);
  EXPECT_LE(report.params.ratio_cut_percent, 70.0);
  EXPECT_NO_THROW(report.params.validate());
}

TEST(Calibrator, PaperConstantsAreWithinDerivedBallpark) {
  // The paper's alpha = 0.83 is our overlap-credit default by construction;
  // its beta = 3.48 should be the right order of magnitude on repetitive
  // commercial data.
  workloads::TransactionGenerator gen(2);
  const CalibrationReport report =
      Calibrator().calibrate(gen.text_block(512 * 1024));
  EXPECT_DOUBLE_EQ(report.params.alpha, 0.83);
  EXPECT_GT(report.params.beta, 1.0);
  EXPECT_LT(report.params.beta, 50.1);
}

TEST(Calibrator, RejectsTinySample) {
  EXPECT_THROW(Calibrator().calibrate(Bytes(100, 0)), ConfigError);
}

TEST(Calibrator, RejectsBadOverlapCredit) {
  EXPECT_THROW(Calibrator(0.0), ConfigError);
  EXPECT_THROW(Calibrator(1.5), ConfigError);
}

// ---------------------------------------------------- echo integration

TEST(CompressionHandler, RoundTripThroughHandlers) {
  const auto compress = make_compression_handler(MethodId::kLempelZiv);
  const auto decompress = make_decompression_handler();

  echo::Event event(testdata::repetitive_text(10000, 5));
  auto compressed = compress(event);
  ASSERT_TRUE(compressed.has_value());
  EXPECT_LT(compressed->payload.size(), event.payload.size());
  EXPECT_EQ(compressed->attributes.get_int(kMethodAttr),
            static_cast<int>(MethodId::kLempelZiv));
  EXPECT_EQ(compressed->attributes.get_int(kOriginalSizeAttr), 10000);

  const auto restored = decompress(*compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->payload, event.payload);
  EXPECT_FALSE(restored->attributes.has(kMethodAttr));
}

TEST(CompressionHandler, DecompressionPassesRawEventsThrough) {
  const auto decompress = make_decompression_handler();
  echo::Event raw(to_bytes("uncompressed"));
  const auto out = decompress(raw);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, raw.payload);
}

TEST(SwitchableCompressor, MethodChangesMidStream) {
  SwitchableCompressor compressor(MethodId::kNone);
  auto handler = compressor.handler();

  echo::Event event(testdata::repetitive_text(5000, 6));
  auto none = handler(event);
  compressor.set_method(MethodId::kBurrowsWheeler);
  auto bw = handler(event);
  ASSERT_TRUE(none && bw);
  EXPECT_GT(none->payload.size(), bw->payload.size());
  EXPECT_EQ(bw->attributes.get_int(kMethodAttr),
            static_cast<int>(MethodId::kBurrowsWheeler));
  EXPECT_EQ(compressor.events_compressed(), 2u);
}

TEST(SwitchableCompressor, ControlSinkAppliesConsumerRequest) {
  SwitchableCompressor compressor(MethodId::kNone);
  auto sink = compressor.control_sink();

  echo::AttributeMap request;
  request.set_int(kMethodAttr, static_cast<int>(MethodId::kLempelZiv));
  sink(request);
  EXPECT_EQ(compressor.method(), MethodId::kLempelZiv);
  EXPECT_EQ(compressor.switches_applied(), 1u);

  // Unknown method ids are ignored, not applied.
  request.set_int(kMethodAttr, 99);
  sink(request);
  EXPECT_EQ(compressor.method(), MethodId::kLempelZiv);
}

TEST(SwitchableCompressor, RejectsUnknownMethodProgrammatically) {
  SwitchableCompressor compressor;
  EXPECT_THROW(compressor.set_method(static_cast<MethodId>(123)),
               ConfigError);
}

TEST(ConsumerController, SignalsProducerWhenConditionsChange) {
  echo::EventChannel channel("data");
  VirtualClock clock;
  DecisionParams params;
  params.sample_size = 1024;
  ConsumerController controller(channel, clock, params);

  MethodId producer_method = MethodId::kNone;
  channel.on_control([&](const echo::AttributeMap& attrs) {
    if (const auto m = attrs.get_int(kMethodAttr)) {
      producer_method = static_cast<MethodId>(*m);
    }
  });

  // Slow arrivals of compressible raw events: the controller should decide
  // compression pays and signal the producer.
  workloads::TransactionGenerator gen(3);
  for (int i = 0; i < 6; ++i) {
    echo::Event event(gen.text_block(32 * 1024));
    controller.observe(event);
    clock.advance(2.0);  // 16 KB/s observed accept rate: very slow
  }
  EXPECT_NE(controller.current(), MethodId::kNone);
  EXPECT_EQ(producer_method, controller.current());
  EXPECT_GE(controller.switches(), 1u);
}

TEST(ConsumerController, FullLoopThroughSwitchableProducer) {
  // Producer compresses through a SwitchableCompressor; the consumer
  // controller watches the derived stream and steers the producer — the
  // complete §3.2 adaptation loop in-process.
  echo::EventBus bus;
  const auto raw = bus.create_channel("raw");
  SwitchableCompressor compressor(MethodId::kNone);
  const auto wire =
      bus.derive_channel(raw, compressor.handler(), "raw.compressed");
  bus.channel(wire).on_control(compressor.control_sink());

  VirtualClock clock;
  DecisionParams params;
  params.sample_size = 1024;
  // A 1 KiB sample of this text sits near the paper's 48.78 % cut; raise
  // the cut so the test deterministically lands in LZ/BW territory.
  params.ratio_cut_percent = 70.0;
  ConsumerController controller(bus.channel(wire), clock, params);

  std::size_t last_wire_size = 0;
  bus.channel(wire).subscribe([&](const echo::Event& e) {
    controller.observe(e);
    last_wire_size = e.payload.size();
  });

  workloads::TransactionGenerator gen(4);
  const std::size_t raw_size = 32 * 1024;
  for (int i = 0; i < 8; ++i) {
    bus.channel(raw).submit(echo::Event(gen.text_block(raw_size)));
    clock.advance(2.0);
  }
  // By the end the producer must have been switched to a compressing
  // method and the wire events must actually be smaller.
  EXPECT_NE(compressor.method(), MethodId::kNone);
  EXPECT_LT(last_wire_size, raw_size / 2);
}

}  // namespace
}  // namespace acex::adaptive
