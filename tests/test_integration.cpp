// Cross-module integration tests: the full middleware stack over real TCP
// sockets (threads, kernel buffers, wall-clock), paced experiments, and
// the seams between experiment configuration and the stream drivers.

#include <gtest/gtest.h>

#include <thread>

#include "adaptive/echo_integration.hpp"
#include "adaptive/experiment.hpp"
#include "adaptive/pipeline.hpp"
#include "echo/bridge.hpp"
#include "echo/bus.hpp"
#include "netsim/load_trace.hpp"
#include "testdata.hpp"
#include "transport/sim_transport.hpp"
#include "transport/tcp_transport.hpp"
#include "util/error.hpp"
#include "workloads/transactions.hpp"

namespace acex {
namespace {

// ------------------------------------------------------ adaptive over TCP

TEST(TcpIntegration, AdaptiveStreamOverSockets) {
  auto [client, server] = transport::socket_pair();
  workloads::TransactionGenerator gen(1);
  const Bytes data = gen.text_block(2 * 1024 * 1024);

  std::thread sender_thread([&client, &data] {
    adaptive::AdaptiveConfig config;
    config.initial_bandwidth_Bps = 100e6;
    adaptive::AdaptiveSender sender(client, config);
    const auto report = sender.send_all(data);
    EXPECT_EQ(report.original_bytes, data.size());
    client.shutdown_send();
  });

  adaptive::AdaptiveReceiver receiver(server);
  const Bytes restored = receiver.receive_available();
  sender_thread.join();
  EXPECT_EQ(restored, data);
  EXPECT_EQ(receiver.frames_received(), 16u);
}

TEST(TcpIntegration, BridgedChannelsAcrossSockets) {
  // Producer process side: channel -> compressor handler -> bridge sender.
  // Consumer side: bridge receiver -> channel -> controller + decompress.
  auto [producer_end, consumer_end] = transport::socket_pair();

  echo::EventChannel producer_channel("ois");
  adaptive::SwitchableCompressor compressor(MethodId::kLempelZiv);
  echo::EventChannel wire_channel("ois.wire");
  const auto handler = compressor.handler();
  producer_channel.subscribe([&](const echo::Event& e) {
    if (auto compressed = handler(e)) wire_channel.submit(*compressed);
  });
  echo::ChannelSender bridge_out(wire_channel, producer_end);

  echo::EventChannel consumer_channel("ois.inbound");
  echo::ChannelReceiver bridge_in(consumer_channel, consumer_end);

  const auto decompress = adaptive::make_decompression_handler();
  std::vector<Bytes> received;
  consumer_channel.subscribe([&](const echo::Event& e) {
    received.push_back(decompress(e)->payload);
  });

  workloads::TransactionGenerator gen(2);
  std::vector<Bytes> sent;
  std::thread producer([&] {
    for (int i = 0; i < 25; ++i) {
      sent.push_back(gen.text_block(20000 + 100 * i));
      producer_channel.submit(echo::Event(sent.back()));
    }
    producer_end.shutdown_send();
  });

  while (received.size() < 25) {
    if (bridge_in.poll(1) == 0) break;  // 0 only at EOF
  }
  producer.join();
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i], sent[i]) << "event " << i;
  }
}

TEST(TcpIntegration, ControlAttributesFlowUpstreamOverSockets) {
  auto [producer_end, consumer_end] = transport::socket_pair();

  echo::EventChannel wire_channel("ctl");
  adaptive::SwitchableCompressor compressor(MethodId::kNone);
  wire_channel.on_control(compressor.control_sink());
  echo::ChannelSender bridge_out(wire_channel, producer_end);

  echo::EventChannel consumer_channel("ctl.inbound");
  echo::ChannelReceiver bridge_in(consumer_channel, consumer_end);

  echo::AttributeMap request;
  request.set_int(adaptive::kMethodAttr,
                  static_cast<int>(MethodId::kBurrowsWheeler));
  bridge_in.signal_control(request);
  consumer_end.shutdown_send();

  EXPECT_EQ(bridge_out.pump_control(), 1u);
  EXPECT_EQ(compressor.method(), MethodId::kBurrowsWheeler);
}

// ---------------------------------------------------------- paced driver

TEST(PacedExperiment, BlocksFollowThePace) {
  workloads::TransactionGenerator gen(3);
  const Bytes data = gen.text_block(10 * 128 * 1024);

  adaptive::ExperimentConfig config;
  config.link.jitter_frac = 0;
  config.pace = 2.0;
  config.adaptive.async_sampling = false;

  const auto result = run_adaptive(data, config);
  ASSERT_TRUE(result.verified);
  ASSERT_EQ(result.stream.blocks.size(), 10u);
  for (std::size_t i = 0; i < result.stream.blocks.size(); ++i) {
    EXPECT_GE(result.stream.blocks[i].submitted,
              2.0 * static_cast<double>(i) - 1e-9)
        << "block " << i;
  }
  EXPECT_GE(result.stream.total_seconds, 18.0);
}

TEST(PacedExperiment, FixedPolicyAlsoPaces) {
  workloads::TransactionGenerator gen(4);
  const Bytes data = gen.text_block(5 * 128 * 1024);

  adaptive::ExperimentConfig config;
  config.link.jitter_frac = 0;
  config.pace = 1.0;
  config.adaptive.async_sampling = false;

  const auto result = run_fixed(data, config, MethodId::kHuffman);
  ASSERT_TRUE(result.verified);
  for (const auto& b : result.stream.blocks) {
    EXPECT_EQ(b.method, MethodId::kHuffman);
  }
  EXPECT_GE(result.stream.blocks.back().submitted, 4.0);
}

TEST(PacedExperiment, ZeroPaceIsBulk) {
  workloads::TransactionGenerator gen(5);
  const Bytes data = gen.text_block(4 * 128 * 1024);
  adaptive::ExperimentConfig config;
  config.link.jitter_frac = 0;
  config.adaptive.async_sampling = false;
  const auto result = run_adaptive(data, config);
  ASSERT_TRUE(result.verified);
  EXPECT_LT(result.stream.total_seconds, 1.0);
}

// --------------------------------------------------------- small seams

TEST(SendBlockFixed, RespectsBlockSizeLimit) {
  VirtualClock clock;
  netsim::LinkParams flat;
  flat.jitter_frac = 0;
  netsim::SimLink fwd(flat, 1), rev(flat, 2);
  transport::SimDuplex duplex(fwd, rev, clock);
  adaptive::AdaptiveConfig config;
  config.async_sampling = false;
  adaptive::AdaptiveSender sender(duplex.a(), config);

  const Bytes ok(config.decision.block_size, 1);
  EXPECT_NO_THROW(sender.plan_block_fixed(ok, MethodId::kHuffman));
  const Bytes big(config.decision.block_size + 1, 1);
  EXPECT_THROW(sender.plan_block_fixed(big, MethodId::kHuffman), ConfigError);
}

TEST(LoadTraceTimeScaled, CompressesTimeAxis) {
  const netsim::LoadTrace trace({{0, 1}, {8, 5}, {16, 2}});
  const netsim::LoadTrace fast = trace.time_scaled(0.5);
  EXPECT_DOUBLE_EQ(fast.duration(), 8.0);
  EXPECT_DOUBLE_EQ(fast.value_at(3.9), 1.0);
  EXPECT_DOUBLE_EQ(fast.value_at(4.0), 5.0);
  EXPECT_DOUBLE_EQ(fast.peak(), trace.peak());
  EXPECT_THROW(trace.time_scaled(0.0), ConfigError);
  EXPECT_THROW(trace.time_scaled(-1.0), ConfigError);
}

TEST(ExperimentSeeds, DifferentSeedsDifferentJitter) {
  workloads::TransactionGenerator gen(6);
  const Bytes data = gen.text_block(512 * 1024);
  adaptive::ExperimentConfig a, b;
  a.link = b.link = netsim::international_link();  // heavy jitter
  a.adaptive.async_sampling = b.adaptive.async_sampling = false;
  a.seed = 1;
  b.seed = 2;
  const auto ra = run_fixed(data, a, MethodId::kNone);
  const auto rb = run_fixed(data, b, MethodId::kNone);
  EXPECT_NE(ra.stream.total_seconds, rb.stream.total_seconds);
}

TEST(ExperimentSeeds, SameSeedReproducesWireTimeline) {
  workloads::TransactionGenerator gen(7);
  const Bytes data = gen.text_block(512 * 1024);
  adaptive::ExperimentConfig config;
  config.link = netsim::international_link();
  config.adaptive.async_sampling = false;
  const auto ra = run_fixed(data, config, MethodId::kNone);
  const auto rb = run_fixed(data, config, MethodId::kNone);
  ASSERT_EQ(ra.stream.blocks.size(), rb.stream.blocks.size());
  for (std::size_t i = 0; i < ra.stream.blocks.size(); ++i) {
    // Wire time is seeded; only the (real) compression timings differ.
    EXPECT_DOUBLE_EQ(ra.stream.blocks[i].send_seconds,
                     rb.stream.blocks[i].send_seconds);
  }
}

}  // namespace
}  // namespace acex
