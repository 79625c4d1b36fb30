// Tests for the rate-limited transport decorator and the pipelined
// (compress-ahead, 2 encode workers) sender over real sockets.

#include <gtest/gtest.h>

#include <thread>

#include "adaptive/pipeline.hpp"
#include "transport/rate_limit.hpp"
#include "transport/tcp_transport.hpp"
#include "util/error.hpp"
#include "workloads/transactions.hpp"

namespace acex {
namespace {

// ------------------------------------------------------------ rate limit

TEST(RateLimit, EnforcesAverageRate) {
  auto [a, b] = transport::socket_pair();
  transport::RateLimitedTransport limited(a, /*bytes_per_second=*/2e6,
                                          /*burst_bytes=*/16 * 1024);

  std::thread drain([&b] {
    while (b.receive().has_value()) {
    }
  });

  MonotonicClock clock;
  const Stopwatch sw(clock);
  const Bytes chunk(16 * 1024, 0x5A);
  constexpr int kChunks = 50;  // 800 KB at 2 MB/s: ~0.4 s
  for (int i = 0; i < kChunks; ++i) limited.send(chunk);
  const Seconds elapsed = sw.elapsed();
  a.shutdown_send();
  drain.join();

  const double rate =
      static_cast<double>(chunk.size()) * kChunks / elapsed;
  EXPECT_LT(rate, 3.5e6);  // at most modestly above the configured rate
  EXPECT_GT(rate, 0.8e6);  // but the limiter must not stall either
}

TEST(RateLimit, BurstPassesImmediately) {
  auto [a, b] = transport::socket_pair();
  transport::RateLimitedTransport limited(a, 1000.0, 64 * 1024);
  MonotonicClock clock;
  const Stopwatch sw(clock);
  limited.send(Bytes(32 * 1024, 1));  // within the initial burst
  EXPECT_LT(sw.elapsed(), 0.1);
  EXPECT_TRUE(b.receive().has_value());
}

TEST(RateLimit, OversizedMessageStillProgresses) {
  auto [a, b] = transport::socket_pair();
  transport::RateLimitedTransport limited(a, 1e7, 1024);
  std::thread drain([&b] { (void)b.receive(); });
  limited.send(Bytes(8 * 1024, 2));  // 8x the burst
  drain.join();
}

TEST(RateLimit, ReceivePassesThrough) {
  auto [a, b] = transport::socket_pair();
  transport::RateLimitedTransport limited(a, 1e6);
  b.send(to_bytes("hello"));
  const auto got = limited.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "hello");
}

TEST(RateLimit, RejectsBadParameters) {
  auto [a, b] = transport::socket_pair();
  EXPECT_THROW(transport::RateLimitedTransport(a, 0.0), ConfigError);
  EXPECT_THROW(transport::RateLimitedTransport(a, -5.0), ConfigError);
  EXPECT_THROW(transport::RateLimitedTransport(a, 1e6, 0), ConfigError);
}

// ------------------------------------------------------- pipelined sender

TEST(PipelinedSender, RoundTripsOverSockets) {
  auto [client, server] = transport::socket_pair();
  workloads::TransactionGenerator gen(1);
  const Bytes data = gen.text_block(2 * 1024 * 1024 + 12345);  // odd tail

  std::thread sender_thread([&client, &data] {
    adaptive::AdaptiveConfig config;
    config.initial_bandwidth_Bps = 1e6;  // pessimistic: will compress
    config.worker_threads = 2;           // compress ahead of the send
    adaptive::AdaptiveSender sender(client, config);
    const auto report = sender.send_all(data);
    EXPECT_EQ(report.original_bytes, data.size());
    EXPECT_EQ(report.blocks.size(), 17u);
    // Indices must be sequential despite the overlap.
    for (std::size_t i = 0; i < report.blocks.size(); ++i) {
      EXPECT_EQ(report.blocks[i].index, i);
    }
    client.shutdown_send();
  });

  adaptive::AdaptiveReceiver receiver(server);
  const Bytes restored = receiver.receive_available();
  sender_thread.join();
  EXPECT_EQ(restored, data);
}

TEST(PipelinedSender, EmptyInputYieldsEmptyReport) {
  auto [client, server] = transport::socket_pair();
  adaptive::AdaptiveConfig config;
  config.worker_threads = 2;
  adaptive::AdaptiveSender sender(client, config);
  const auto report = sender.send_all(Bytes{});
  EXPECT_TRUE(report.blocks.empty());
  EXPECT_EQ(report.total_seconds, 0.0);
}

TEST(PipelinedSender, OverlapsCompressionWithThrottledSend) {
  // On a throttled link where wire time dominates, the pipelined total
  // must not exceed the serial total (and usually beats it by roughly the
  // compression time). Generous tolerance: this is a wall-clock test.
  workloads::TransactionGenerator gen(2);
  const Bytes data = gen.text_block(1024 * 1024);

  const auto run = [&](bool pipelined) {
    auto [client, server] = transport::socket_pair();
    transport::RateLimitedTransport limited(client, 1.5e6, 32 * 1024);
    std::thread drain([&server] {
      while (server.receive().has_value()) {
      }
    });
    adaptive::AdaptiveConfig config;
    config.initial_bandwidth_Bps = 1.5e6;
    config.worker_threads = pipelined ? 2 : 1;
    adaptive::AdaptiveSender sender(limited, config);
    const auto report = sender.send_all(data);
    client.shutdown_send();
    drain.join();
    return report.total_seconds;
  };

  const Seconds serial = run(false);
  const Seconds overlapped = run(true);
  EXPECT_LT(overlapped, serial * 1.15);
}

}  // namespace
}  // namespace acex
