#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "broker/broker.hpp"
#include "netsim/link.hpp"
#include "obs/metrics.hpp"
#include "testdata.hpp"
#include "transport/fault_transport.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"

namespace acex::broker {
namespace {

netsim::LinkParams flat(double bandwidth_Bps = 1e6) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bandwidth_Bps;
  p.jitter_frac = 0;
  return p;
}

/// Thread-safe frame sink for the concurrency tests (SimDuplex is
/// single-threaded by design, so churn/blocking tests use this instead).
class SinkTransport final : public transport::Transport {
 public:
  void send(ByteView message) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++frames_;
    bytes_ += message.size();
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }

  std::uint64_t frames() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  MonotonicClock clock_;
};

Bytes compressible_block(std::size_t size, std::uint64_t seed) {
  return testdata::low_entropy(size, seed);
}

/// One simulated subscriber endpoint: its own duplex link pair, with the
/// broker writing into a() and the receiver draining b().
struct SimEndpoint {
  explicit SimEndpoint(VirtualClock& clock, double bandwidth_Bps = 1e6,
                       std::uint64_t seed = 1)
      : forward(flat(bandwidth_Bps), seed),
        reverse(flat(bandwidth_Bps), seed + 1000),
        duplex(forward, reverse, clock) {}

  netsim::SimLink forward;
  netsim::SimLink reverse;
  transport::SimDuplex duplex;
};

// ------------------------------------------------------- group formation

TEST(BrokerGroups, HomogeneousSubscribersFormOneGroupPerBlock) {
  VirtualClock clock;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints;
  FanoutBroker broker;
  std::vector<SubscriberId> ids;
  for (int i = 0; i < 4; ++i) {
    endpoints.push_back(std::make_unique<SimEndpoint>(clock, 1e6, 10 + i));
    ids.push_back(broker.subscribe(endpoints.back()->duplex.a()));
  }

  const Bytes block = compressible_block(8 * 1024, 7);
  const int kBlocks = 5;
  for (int i = 0; i < kBlocks; ++i) {
    broker.publish(block);
    broker.pump_all();
  }

  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.blocks, static_cast<std::uint64_t>(kBlocks));
  // Identical configs + identical measured links + one shared sample per
  // block => every subscriber picks the same method => exactly one codec
  // run per block, K-1 cache hits.
  EXPECT_EQ(stats.encodes, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(stats.cache_misses, stats.encodes);
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kBlocks * 3));
  EXPECT_EQ(stats.last_groups, 1u);
  for (const SubscriberId id : ids) {
    EXPECT_EQ(broker.subscriber_stats(id).frames,
              static_cast<std::uint64_t>(kBlocks));
  }
}

TEST(BrokerGroups, SubscriberSendersStartNoThreads) {
  obs::Gauge& workers =
      obs::MetricsRegistry::global().gauge("acex.engine.workers");
  const std::int64_t before = workers.value();
  VirtualClock clock;
  SimEndpoint endpoint(clock);
  FanoutBroker broker;
  SubscriberConfig config;
  config.adaptive.worker_threads = 0;  // one per hardware thread, if used
  broker.subscribe(endpoint.duplex.a(), config);
  for (int i = 0; i < 3; ++i) {
    broker.publish(compressible_block(8 * 1024, 20 + i));
    broker.pump_all();
  }
  EXPECT_EQ(broker.stats().blocks, 3u);
  EXPECT_EQ(workers.value(), before);
}

TEST(BrokerGroups, HeterogeneousLinksFormMethodGroups) {
  VirtualClock clock;
  // Two subscribers behind an (initially) very fast link — sending is
  // cheaper than compressing, the selector stays at kNone — and two
  // behind a crawling one, which must compress.
  SimEndpoint fast1(clock, 1e6, 1), fast2(clock, 1e6, 2);
  SimEndpoint slow1(clock, 1e6, 3), slow2(clock, 1e6, 4);

  FanoutBroker broker;
  SubscriberConfig fast_cfg;
  fast_cfg.adaptive.initial_bandwidth_Bps = 1e12;
  SubscriberConfig slow_cfg;
  slow_cfg.adaptive.initial_bandwidth_Bps = 1e3;
  broker.subscribe(fast1.duplex.a(), fast_cfg);
  broker.subscribe(fast2.duplex.a(), fast_cfg);
  broker.subscribe(slow1.duplex.a(), slow_cfg);
  broker.subscribe(slow2.duplex.a(), slow_cfg);

  broker.publish(compressible_block(16 * 1024, 9));

  const BrokerStats stats = broker.stats();
  // Two distinct method choices -> two groups -> two encodes, two hits.
  EXPECT_EQ(stats.last_groups, 2u);
  EXPECT_EQ(stats.encodes, 2u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(BrokerGroups, OneSamplePerDistinctChunkPrefix) {
  VirtualClock clock;
  // The acexd mix: negotiated block sizes 16/8/16/4 KiB re-chunk one
  // 16 KiB publish into 7 pieces, but only 4 distinct prefixes (offsets
  // 0, 4, 8 and 12 KiB).
  const std::size_t kSizes[] = {16 * 1024, 8 * 1024, 16 * 1024, 4 * 1024};
  std::vector<std::unique_ptr<SimEndpoint>> endpoints;
  FanoutBroker broker;
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    endpoints.push_back(std::make_unique<SimEndpoint>(clock, 1e6, 30 + i));
    SubscriberConfig config;
    config.adaptive.decision.block_size = kSizes[i];
    // A crawling link: compression always pays, so the sampled ratio
    // alone picks the method (LZ/BW below the ratio cut, Huffman above).
    config.adaptive.initial_bandwidth_Bps = 1e3;
    broker.subscribe(endpoints.back()->duplex.a(), config);
  }

  // Quarters alternate between repetitive (zeros) and skewed-but-
  // unstructured bytes, so a sample taken at the wrong offset picks the
  // other method and shows on the wire.
  Bytes block;
  for (int q = 0; q < 4; ++q) {
    const Bytes part = q % 2 == 0 ? testdata::zeros(4 * 1024, 0)
                                  : compressible_block(4 * 1024, q);
    block.insert(block.end(), part.begin(), part.end());
  }
  broker.publish(block);
  EXPECT_EQ(broker.stats().samples, 4u);
  broker.pump_all();

  // Each subscriber's frames carry the method that Sampler().sample() of
  // its own chunk calls for.
  const adaptive::Sampler sampler;
  const double cut = adaptive::DecisionParams{}.ratio_cut_percent;
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    std::vector<bool> expect_lz_family;
    for (std::size_t off = 0; off < block.size(); off += kSizes[i]) {
      expect_lz_family.push_back(
          sampler.sample(ByteView(block).subspan(off, kSizes[i]))
              .ratio_percent < cut);
    }
    if (kSizes[i] == 4 * 1024) {  // the quarters really differ
      ASSERT_EQ(expect_lz_family,
                std::vector<bool>({true, false, true, false}));
    }
    std::vector<bool> got_lz_family;
    while (auto wire = endpoints[i]->duplex.b().receive()) {
      const MethodId method = frame_parse(*wire).method;
      if (method != MethodId::kHuffman) {
        EXPECT_TRUE(method == MethodId::kLempelZiv ||
                    method == MethodId::kBurrowsWheeler)
            << "subscriber " << i << " method " << static_cast<int>(method);
      }
      got_lz_family.push_back(method != MethodId::kHuffman);
    }
    EXPECT_EQ(got_lz_family, expect_lz_family) << "subscriber " << i;
  }

  // Uniform block sizes: one sample per publish, whatever the fan-out.
  std::vector<std::unique_ptr<SimEndpoint>> uniform_endpoints;
  FanoutBroker uniform;
  for (int i = 0; i < 3; ++i) {
    uniform_endpoints.push_back(
        std::make_unique<SimEndpoint>(clock, 1e6, 40 + i));
    uniform.subscribe(uniform_endpoints.back()->duplex.a());
  }
  uniform.publish(block);
  EXPECT_EQ(uniform.stats().samples, 1u);
}

TEST(BrokerGroups, RawOnlySubscriberTakesNoSample) {
  // The acexd mix of OneSamplePerDistinctChunkPrefix, with the 4 KiB
  // subscriber governed to the null codec (a negotiated `{none}` offer).
  // No sample can change its method, so its four chunk prefixes go
  // unsampled: a publish costs the 16 and 8 KiB subscribers' two samples
  // (offsets 0 and 8 KiB), not four.
  const std::size_t kSizes[] = {16 * 1024, 8 * 1024, 16 * 1024, 4 * 1024};
  const std::size_t kRaw = 3;
  std::vector<Bytes> blocks;
  for (std::uint64_t b = 0; b < 3; ++b) {
    Bytes block;
    for (std::uint64_t q = 0; q < 4; ++q) {
      const Bytes part = q % 2 == 0 ? testdata::zeros(4 * 1024, 0)
                                    : compressible_block(4 * 1024, 10 * b + q);
      block.insert(block.end(), part.begin(), part.end());
    }
    blocks.push_back(std::move(block));
  }

  // Each subscriber's wire frames, with or without the raw-only one.
  const auto run = [&](bool with_raw) {
    VirtualClock clock;
    std::vector<std::unique_ptr<SimEndpoint>> endpoints;
    FanoutBroker broker;
    for (std::size_t i = 0; i < std::size(kSizes); ++i) {
      if (i == kRaw && !with_raw) continue;
      endpoints.push_back(std::make_unique<SimEndpoint>(clock, 1e6, 60 + i));
      SubscriberConfig config;
      config.adaptive.decision.block_size = kSizes[i];
      config.adaptive.initial_bandwidth_Bps = 1e3;  // compression pays
      if (i == kRaw) {
        config.adaptive.method_governor = [](MethodId) {
          return MethodId::kNone;
        };
      }
      broker.subscribe(endpoints.back()->duplex.a(), config);
    }
    for (const Bytes& block : blocks) {
      const std::uint64_t before = broker.stats().samples;
      broker.publish(block);
      EXPECT_EQ(broker.stats().samples - before, 2u)
          << (with_raw ? "with" : "without") << " the raw-only subscriber";
      broker.pump_all();
    }
    std::vector<std::vector<Bytes>> wires;
    for (auto& endpoint : endpoints) {
      wires.emplace_back();
      while (auto wire = endpoint->duplex.b().receive()) {
        wires.back().push_back(std::move(*wire));
      }
    }
    return wires;
  };

  const std::vector<std::vector<Bytes>> with = run(true);
  const std::vector<std::vector<Bytes>> without = run(false);
  ASSERT_EQ(with.size(), 4u);
  ASSERT_EQ(without.size(), 3u);

  // The raw-only subscriber gets every 4 KiB chunk raw, in sequence.
  const CodecRegistry registry = CodecRegistry::with_builtins();
  const std::vector<Bytes>& raw = with[kRaw];
  ASSERT_EQ(raw.size(), 4 * blocks.size());
  for (std::size_t seq = 0; seq < raw.size(); ++seq) {
    const Frame frame = frame_parse(raw[seq]);
    EXPECT_EQ(frame.method, MethodId::kNone) << "frame " << seq;
    EXPECT_TRUE(frame.has_sequence);
    EXPECT_EQ(frame.sequence, seq);
    const ByteView chunk =
        ByteView(blocks[seq / 4]).subspan((seq % 4) * 4 * 1024, 4 * 1024);
    EXPECT_EQ(frame_decode(frame, registry), Bytes(chunk.begin(), chunk.end()))
        << "frame " << seq;
  }
  // Everyone else's frames are byte-identical to a fan-out without it.
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_FALSE(without[i].empty());
    EXPECT_EQ(with[i], without[i]) << "subscriber " << i;
  }
}

TEST(BrokerGroups, EachSubscriberSamplesWithItsOwnSampleSize) {
  VirtualClock clock;
  // Four subscribers share one 4 KiB chunk: two sample its first KiB, two
  // all of it.
  const std::size_t kSampleSizes[] = {1024, 4096, 1024, 4096};
  std::vector<std::unique_ptr<SimEndpoint>> endpoints;
  FanoutBroker broker;
  for (std::size_t i = 0; i < std::size(kSampleSizes); ++i) {
    endpoints.push_back(std::make_unique<SimEndpoint>(clock, 1e6, 50 + i));
    SubscriberConfig config;
    config.adaptive.decision.block_size = 4 * 1024;
    config.adaptive.decision.sample_size = kSampleSizes[i];
    // A crawling link: the sampled ratio alone picks the method (LZ/BW
    // below the ratio cut, Huffman above), so each plan's sampled ratio
    // shows on the wire as the side of the cut it fell on.
    config.adaptive.initial_bandwidth_Bps = 1e3;
    broker.subscribe(endpoints.back()->duplex.a(), config);
  }

  // Zeros in the first KiB, noise behind it: a 1 KiB sample lands below
  // the cut, a 4 KiB one above.
  Bytes chunk = testdata::zeros(1024, 0);
  const Bytes noise = testdata::random_bytes(3 * 1024, 51);
  chunk.insert(chunk.end(), noise.begin(), noise.end());
  const double cut = adaptive::DecisionParams{}.ratio_cut_percent;
  ASSERT_LT(adaptive::Sampler(1024).sample(chunk).ratio_percent, cut);
  ASSERT_GE(adaptive::Sampler(4096).sample(chunk).ratio_percent, cut);

  broker.publish(chunk);
  BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.samples, 2u);       // one per distinct sample size
  EXPECT_EQ(stats.last_groups, 2u);   // one per chosen method
  EXPECT_EQ(stats.encodes, 2u);
  EXPECT_EQ(stats.cache_hits, 2u);

  // All zeros: both sample sizes land below the cut, so the differing
  // samples still feed ONE encode group.
  broker.publish(testdata::zeros(4 * 1024, 0));
  stats = broker.stats();
  EXPECT_EQ(stats.samples, 4u);
  EXPECT_EQ(stats.last_groups, 1u);
  EXPECT_EQ(stats.encodes, 3u);
  EXPECT_EQ(stats.cache_hits, 5u);

  broker.pump_all();
  for (std::size_t i = 0; i < std::size(kSampleSizes); ++i) {
    std::vector<bool> got_lz_family;
    while (auto wire = endpoints[i]->duplex.b().receive()) {
      got_lz_family.push_back(frame_parse(*wire).method != MethodId::kHuffman);
    }
    const bool own_sample_compresses =
        adaptive::Sampler(kSampleSizes[i]).sample(chunk).ratio_percent < cut;
    EXPECT_EQ(got_lz_family, std::vector<bool>({own_sample_compresses, true}))
        << "subscriber " << i;
  }
}

// --------------------------------------------- shared-encode byte identity

TEST(BrokerCache, SubscribersOnIdenticalLinksReceiveIdenticalBytes) {
  obs::MetricsRegistry::global().reset_values();
  VirtualClock clock;
  constexpr int kSubs = 3;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints;
  FanoutBroker broker;
  std::vector<SubscriberId> ids;
  for (int i = 0; i < kSubs; ++i) {
    // Same link seed everywhere: the measured transfers (and therefore
    // the bandwidth feedback) are identical across subscribers.
    endpoints.push_back(std::make_unique<SimEndpoint>(clock, 1e6, 1));
    ids.push_back(broker.subscribe(endpoints.back()->duplex.a()));
  }

  std::vector<Bytes> blocks;
  const int kBlocks = 6;
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back(compressible_block(8 * 1024, 100 + i));
    broker.publish(blocks.back());
    broker.pump_all();
  }

  // The wire bytes must be identical subscriber-to-subscriber: same
  // payload from the shared encode, same sequence (every subscriber
  // joined at the start), same frame envelope.
  std::vector<std::vector<Bytes>> wires(kSubs);
  for (int s = 0; s < kSubs; ++s) {
    while (auto frame = endpoints[s]->duplex.b().receive()) {
      wires[s].push_back(std::move(*frame));
    }
    ASSERT_EQ(wires[s].size(), static_cast<std::size_t>(kBlocks));
  }
  for (int s = 1; s < kSubs; ++s) EXPECT_EQ(wires[s], wires[0]);

  // And each frame decodes back to the published block.
  const CodecRegistry registry = CodecRegistry::with_builtins();
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(frame_decompress(wires[0][i], registry), blocks[i]);
  }

  // Obs mirror == ground truth: encode invocations per block == distinct
  // chosen methods (here 1), asserted through the encode-cache counters.
  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.encodes, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kBlocks * (kSubs - 1)));
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::MetricPoint* hits = snap.find("acex.broker.encode_cache.hits");
  const obs::MetricPoint* misses = snap.find("acex.broker.encode_cache.misses");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(hits->counter, stats.cache_hits);
  EXPECT_EQ(misses->counter, stats.cache_misses);
}

/// Keeps every frame it is handed, in order.
class CaptureTransport final : public transport::Transport {
 public:
  void send(ByteView message) override {
    frames.emplace_back(message.begin(), message.end());
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }

  std::vector<Bytes> frames;

 private:
  VirtualClock clock_;
};

/// Emits exactly `input + slack` bytes whatever the input: its frame sits
/// right on the expansion limit, where only the frame's size varint can
/// tip the verdict.
class FixedSizeCodec final : public Codec {
 public:
  explicit FixedSizeCodec(std::size_t slack) : slack_(slack) {}
  MethodId id() const noexcept override { return MethodId::kBurrowsWheeler; }
  Bytes compress(ByteView input) override {
    Bytes out(input.begin(), input.end());
    out.resize(input.size() + slack_, 0x5A);
    return out;
  }
  Bytes decompress(ByteView input) override {
    return Bytes(input.begin(), input.begin() + (input.size() - slack_));
  }

 private:
  std::size_t slack_;
};

TEST(BrokerCache, FramesMatchTheSenderOnTheExpansionEdge) {
  adaptive::AdaptiveConfig config;
  config.async_sampling = false;
  config.target_rate_Bps = 1e12;  // pin the selector to the ladder top
  const std::size_t slack = config.expansion_slack_bytes;
  const auto fixed_size = [slack] {
    return CodecPtr(new FixedSizeCodec(slack));
  };

  CaptureTransport direct;
  adaptive::AdaptiveSender sender(direct, config);
  sender.registry().register_factory(MethodId::kBurrowsWheeler, fixed_size);

  CaptureTransport downstream;
  FanoutBroker broker;
  broker.registry().register_factory(MethodId::kBurrowsWheeler, fixed_size);
  SubscriberConfig sub_config;
  sub_config.adaptive = config;
  const SubscriberId id = broker.subscribe(downstream, sub_config);

  // 127 and 16383 are the largest sizes with a 1- and a 2-byte size
  // varint; 64 more bytes need one varint byte more.
  const std::vector<Bytes> blocks = {compressible_block(127, 1),
                                     compressible_block(16383, 2)};
  for (const Bytes& block : blocks) {
    const adaptive::StreamReport report = sender.send_all(block);
    ASSERT_EQ(report.blocks.size(), 1u);
    EXPECT_EQ(report.blocks[0].requested_method, MethodId::kBurrowsWheeler);
    EXPECT_TRUE(report.blocks[0].fallback) << block.size() << "-byte block";
    broker.publish(block);
    broker.pump_all();
  }

  ASSERT_EQ(direct.frames.size(), blocks.size());
  ASSERT_EQ(downstream.frames.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(downstream.frames[i], direct.frames[i])
        << blocks[i].size() << "-byte block: broker and sender frames differ";
  }
  EXPECT_EQ(broker.subscriber_stats(id).fallbacks, blocks.size());
}

TEST(BrokerCache, LateJoinerSequencesStartAtZero) {
  VirtualClock clock;
  SimEndpoint early(clock, 1e6, 1), late(clock, 1e6, 2);
  FanoutBroker broker;
  broker.subscribe(early.duplex.a());

  broker.publish(compressible_block(4096, 1));
  broker.publish(compressible_block(4096, 2));
  broker.pump_all();

  broker.subscribe(late.duplex.a());
  broker.publish(compressible_block(4096, 3));
  broker.pump_all();

  // The late joiner's stream starts at sequence 0: its receiver must see
  // a gapless fresh stream, not a hole covering the blocks it missed.
  adaptive::AdaptiveReceiver receiver(late.duplex.b(),
                                      {adaptive::RecoveryPolicy::kNack,
                                       3, 1024});
  const adaptive::ReceiveReport report = receiver.receive_report();
  EXPECT_EQ(report.frames_ok, 1u);
  EXPECT_TRUE(report.gaps.empty());
  ASSERT_EQ(report.frames.size(), 1u);
  EXPECT_EQ(report.frames[0].sequence, 0u);
}

// --------------------------------------------------- slow-consumer policy

TEST(BrokerPolicy, DropOldestNeverStallsAndCountsDrops) {
  VirtualClock clock;
  SimEndpoint slow(clock, 1e6, 1), healthy(clock, 1e6, 2);
  FanoutBroker broker;

  SubscriberConfig slow_cfg;
  slow_cfg.egress_capacity = 2;
  slow_cfg.policy = SlowConsumerPolicy::kDropOldest;
  const SubscriberId slow_id = broker.subscribe(slow.duplex.a(), slow_cfg);

  SubscriberConfig healthy_cfg;
  healthy_cfg.egress_capacity = 64;
  const SubscriberId healthy_id =
      broker.subscribe(healthy.duplex.a(), healthy_cfg);

  // Publish without ever pumping the slow subscriber: the publisher must
  // never block, and the overflow lands on the slow queue alone.
  const int kBlocks = 5;
  for (int i = 0; i < kBlocks; ++i) {
    broker.publish(compressible_block(4096, i));
  }
  EXPECT_EQ(broker.subscriber_stats(slow_id).drops,
            static_cast<std::uint64_t>(kBlocks - 2));
  EXPECT_EQ(broker.egress_depth(slow_id), 2u);
  EXPECT_FALSE(broker.disconnected(slow_id));
  EXPECT_EQ(broker.subscriber_stats(healthy_id).frames,
            static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(broker.egress_depth(healthy_id),
            static_cast<std::size_t>(kBlocks));
}

TEST(BrokerPolicy, DisconnectFailsSlowSubscriberOnly) {
  VirtualClock clock;
  SimEndpoint doomed(clock, 1e6, 1), healthy(clock, 1e6, 2);
  FanoutBroker broker;

  SubscriberConfig doomed_cfg;
  doomed_cfg.egress_capacity = 2;
  doomed_cfg.policy = SlowConsumerPolicy::kDisconnect;
  const SubscriberId doomed_id =
      broker.subscribe(doomed.duplex.a(), doomed_cfg);
  const SubscriberId healthy_id = broker.subscribe(healthy.duplex.a());

  const int kBlocks = 5;
  for (int i = 0; i < kBlocks; ++i) {
    broker.publish(compressible_block(4096, i));
  }
  EXPECT_TRUE(broker.disconnected(doomed_id));
  EXPECT_FALSE(broker.disconnected(healthy_id));
  // The overflow happened on block 3 (capacity 2): the doomed subscriber
  // accepted 2 frames, then dropped out; the healthy one got them all.
  EXPECT_EQ(broker.subscriber_stats(doomed_id).frames, 2u);
  EXPECT_EQ(broker.subscriber_stats(healthy_id).frames,
            static_cast<std::uint64_t>(kBlocks));
  broker.pump_all();
  EXPECT_EQ(broker.subscriber_stats(healthy_id).delivered,
            static_cast<std::uint64_t>(kBlocks));
}

TEST(BrokerPolicy, BlockPolicyWakesWhenPumped) {
  SinkTransport sink;
  FanoutBroker broker;
  SubscriberConfig cfg;
  cfg.egress_capacity = 1;
  cfg.policy = SlowConsumerPolicy::kBlock;
  const SubscriberId id = broker.subscribe(sink, cfg);

  const Bytes block = compressible_block(4096, 1);
  std::atomic<int> published{0};
  std::thread publisher([&] {
    for (int i = 0; i < 3; ++i) {
      broker.publish(block);
      published.fetch_add(1);
    }
  });
  // Drain until all three frames made it through the capacity-1 queue —
  // each pump frees the slot the blocked publisher is waiting for.
  while (broker.subscriber_stats(id).delivered < 3) {
    broker.pump(id);
    std::this_thread::yield();
  }
  publisher.join();
  EXPECT_EQ(published.load(), 3);
  EXPECT_EQ(sink.frames(), 3u);
}

// ------------------------------------------------------ churn under load

TEST(BrokerChurn, SubscribeUnsubscribeDuringConcurrentPublish) {
  SinkTransport sinks[4];
  FanoutBroker broker({.worker_threads = 2});

  SubscriberConfig cfg;
  cfg.egress_capacity = 4;
  cfg.policy = SlowConsumerPolicy::kDropOldest;

  // A stable subscriber that lives through the whole run.
  const SubscriberId stable = broker.subscribe(sinks[0], cfg);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    const Bytes block = compressible_block(8 * 1024, 1);
    while (!stop.load()) broker.publish(block);
  });
  std::thread pumper([&] {
    while (!stop.load()) broker.pump_all();
  });
  std::thread churner([&] {
    for (int round = 0; round < 50; ++round) {
      std::vector<SubscriberId> ids;
      for (int i = 1; i < 4; ++i) ids.push_back(broker.subscribe(sinks[i], cfg));
      for (const SubscriberId id : ids) broker.unsubscribe(id);
    }
    stop.store(true);
  });
  churner.join();
  publisher.join();
  pumper.join();
  broker.pump_all();

  EXPECT_EQ(broker.subscriber_count(), 1u);
  const SubscriberStats stats = broker.subscriber_stats(stable);
  EXPECT_FALSE(stats.disconnected);
  EXPECT_GT(stats.frames, 0u);
  // Ground truth stays consistent under churn: every frame the stable
  // subscriber accepted was either delivered or dropped or is queued.
  EXPECT_EQ(stats.frames,
            stats.delivered + stats.drops + broker.egress_depth(stable));
}

TEST(BrokerChurn, UnsubscribedSubscriberStopsReceiving) {
  VirtualClock clock;
  SimEndpoint a(clock, 1e6, 1), b(clock, 1e6, 2);
  FanoutBroker broker;
  const SubscriberId id_a = broker.subscribe(a.duplex.a());
  const SubscriberId id_b = broker.subscribe(b.duplex.a());

  broker.publish(compressible_block(4096, 1));
  ASSERT_TRUE(broker.unsubscribe(id_a));
  EXPECT_FALSE(broker.unsubscribe(id_a));  // idempotent
  broker.publish(compressible_block(4096, 2));
  broker.pump_all();

  EXPECT_EQ(broker.subscriber_count(), 1u);
  EXPECT_EQ(broker.subscriber_stats(id_b).frames, 2u);
  EXPECT_THROW(broker.subscriber_stats(id_a), ConfigError);
  // The removed subscriber's egress died with it: only the pre-removal
  // frame could ever have been delivered, and queued ones were dropped.
  std::size_t delivered_a = 0;
  while (a.duplex.b().receive()) ++delivered_a;
  EXPECT_LE(delivered_a, 1u);
}

// ------------------------------------------- per-subscriber recovery

TEST(BrokerRecovery, LossySubscriberRecoversIndependently) {
  VirtualClock clock;
  SimEndpoint lossy_ep(clock, 1e6, 1), clean_ep(clock, 1e6, 2);
  transport::FaultConfig faults;
  faults.drop_prob = 0.3;
  faults.seed = 7;
  transport::FaultInjectingTransport lossy(lossy_ep.duplex.a(), faults);

  FanoutBroker broker;
  const SubscriberId lossy_id = broker.subscribe(lossy);
  const SubscriberId clean_id = broker.subscribe(clean_ep.duplex.a());

  std::vector<Bytes> blocks;
  const int kBlocks = 12;
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back(compressible_block(4096, 200 + i));
    broker.publish(blocks.back());
    broker.pump_all();
  }
  lossy.flush();

  adaptive::ReceiverConfig rcfg;
  rcfg.policy = adaptive::RecoveryPolicy::kNack;
  adaptive::AdaptiveReceiver lossy_rx(lossy_ep.duplex.b(), rcfg);
  adaptive::AdaptiveReceiver clean_rx(clean_ep.duplex.b(), rcfg);

  std::map<std::uint64_t, Bytes> recovered;
  const auto drain = [&](adaptive::AdaptiveReceiver& rx) {
    const adaptive::ReceiveReport report = rx.receive_report();
    for (const auto& frame : report.frames) {
      if (frame.status == adaptive::FrameOutcome::Status::kOk) {
        recovered[frame.sequence] = frame.data;
      }
    }
  };

  drain(lossy_rx);
  // NACK cycles: receiver asks, broker replays from the lossy
  // subscriber's OWN retransmit ring, pump delivers.
  for (int cycle = 0; cycle < 8; ++cycle) {
    const std::vector<std::uint64_t> nacks = lossy_rx.take_nacks();
    if (nacks.empty()) break;
    broker.retransmit(lossy_id, nacks);
    broker.pump(lossy_id);
    lossy.flush();
    broker.pump(lossy_id);
    drain(lossy_rx);
  }
  ASSERT_EQ(recovered.size(), static_cast<std::size_t>(kBlocks));
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(recovered[static_cast<std::uint64_t>(i)], blocks[i]);
  }
  EXPECT_GT(broker.subscriber_stats(lossy_id).retransmits, 0u);

  // The clean subscriber never noticed: full stream, zero retransmits.
  recovered.clear();
  drain(clean_rx);
  EXPECT_EQ(recovered.size(), static_cast<std::size_t>(kBlocks));
  EXPECT_EQ(broker.subscriber_stats(clean_id).retransmits, 0u);
}

// ---------------------------------------------------------- channel attach

TEST(BrokerAttach, ChannelEventsFanOutToSubscribers) {
  VirtualClock clock;
  SimEndpoint ep(clock, 1e6, 1);
  FanoutBroker broker;
  broker.subscribe(ep.duplex.a());

  echo::EventChannel channel("sensors");
  const echo::SubscriberId tap = broker.attach(channel);
  channel.submit(echo::Event(compressible_block(4096, 1)));
  channel.submit(echo::Event(compressible_block(4096, 2)));
  broker.detach(channel, tap);
  channel.submit(echo::Event(compressible_block(4096, 3)));  // not published
  broker.pump_all();

  EXPECT_EQ(broker.stats().blocks, 2u);
  std::size_t frames = 0;
  while (ep.duplex.b().receive()) ++frames;
  EXPECT_EQ(frames, 2u);
}

// ----------------------------------------- egress timeout + shed mode

TEST(BrokerEgress, BlockTimeoutThrowsTypedOutcomeAndKeepsQueueOpen) {
  MonotonicClock clock;
  EgressQueue q(1, SlowConsumerPolicy::kBlock, clock, 0.05);
  q.send(Bytes{1});
  // Nobody pumps: the bounded wait must expire with the typed outcome
  // instead of pinning this thread forever (the seed behaviour).
  EXPECT_THROW(q.send(Bytes{2}), EgressTimeout);
  EXPECT_EQ(q.timeouts(), 1u);
  EXPECT_FALSE(q.closed());
  // The timed-out frame was not enqueued; the queue keeps working.
  EXPECT_EQ(q.receive(), Bytes{1});
  q.send(Bytes{3});
  EXPECT_EQ(q.receive(), Bytes{3});
}

TEST(BrokerEgress, BlockedSenderWakesWhenDrainedBeforeTimeout) {
  MonotonicClock clock;
  EgressQueue q(1, SlowConsumerPolicy::kBlock, clock, 5.0);
  q.send(Bytes{1});
  std::thread consumer([&] {
    while (!q.receive()) std::this_thread::yield();
  });
  q.send(Bytes{2});  // must ride the drain, nowhere near the 5 s deadline
  consumer.join();
  EXPECT_EQ(q.timeouts(), 0u);
  EXPECT_EQ(q.receive(), Bytes{2});
}

TEST(BrokerEgress, ShedModeDropsOldestInsteadOfBlocking) {
  MonotonicClock clock;
  EgressQueue q(2, SlowConsumerPolicy::kBlock, clock);
  q.send(Bytes{1});
  q.send(Bytes{2});
  q.set_shed_mode(true);
  q.send(Bytes{3});  // full queue + shed: evict 1, admit 3, never wait
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.receive(), Bytes{2});
  EXPECT_EQ(q.receive(), Bytes{3});
  q.set_shed_mode(false);
  EXPECT_FALSE(q.shed_mode());
}

TEST(BrokerEgress, ClearEmptiesWithoutCountingDrops) {
  MonotonicClock clock;
  EgressQueue q(8, SlowConsumerPolicy::kDropOldest, clock);
  q.send(Bytes{1, 2, 3});
  q.send(Bytes{4, 5});
  std::set<const void*> before;
  EXPECT_EQ(q.bytes_unique(before), 5u);
  EXPECT_EQ(q.clear(), 2u);
  std::set<const void*> after;
  EXPECT_EQ(q.bytes_unique(after), 0u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.drops(), 0u);  // cleared frames are replayed, not lost
  EXPECT_FALSE(q.closed());
  q.send(Bytes{6});
  EXPECT_EQ(q.receive(), Bytes{6});
}

TEST(BrokerPolicy, EgressTimeoutCountsOnSubscriberAndStaysConnected) {
  SinkTransport sink;
  FanoutBroker broker;
  SubscriberConfig cfg;
  cfg.egress_capacity = 1;
  cfg.policy = SlowConsumerPolicy::kBlock;
  cfg.block_timeout = 0.05;
  const SubscriberId id = broker.subscribe(sink, cfg);

  broker.publish(compressible_block(4096, 1));
  // Queue full, nobody pumping: the publish must return after the bounded
  // wait with the timeout accounted, NOT disconnect the subscriber and NOT
  // wedge the publisher.
  broker.publish(compressible_block(4096, 2));
  EXPECT_EQ(broker.subscriber_stats(id).egress_timeouts, 1u);
  EXPECT_FALSE(broker.disconnected(id));

  // Drain and confirm the stream continues; the lost sequence stays
  // NACK-recoverable from the ring.
  broker.pump(id);
  broker.publish(compressible_block(4096, 3));
  broker.pump(id);
  EXPECT_EQ(sink.frames(), 2u);
  EXPECT_EQ(broker.retransmit(id, {1}), 1u);
}

}  // namespace
}  // namespace acex::broker
