// The benchmark's own tests: its statistics, pacing and lateness helpers,
// its tracer, and a short smoke run of every workload end to end.

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <set>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace acexbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // order must not matter
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0.5), 1);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(100, 50), 50u);
  EXPECT_EQ(samples_beyond(0, 99), 0u);
}

TEST(Percentile, HighestWithTenBeyond) {
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  // kMinLatencySamples is exactly what makes the reported p99 legitimate.
  EXPECT_GE(highest_supported_percentile(kMinLatencySamples), 99.0);
  EXPECT_LT(highest_supported_percentile(kMinLatencySamples - 1), 99.0);
}

// A saturated sender that always wakes late still gets exactly the
// configured rate over the long run: the overshoot is credited back.
TEST(Pacer, LongRunRateIsExactWhenSaturated) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> size(1000, 140000);
  std::uniform_real_distribution<double> overshoot(0, 150e-6);
  const double rate = 4.5e6;
  Pacer pacer;
  double now = 100.0;
  const double start = now;
  double bytes = 0;
  double done = now;
  for (int i = 0; i < 5000; ++i) {
    const std::size_t n = size(rng);
    done = pacer.reserve(n, rate, now);
    bytes += static_cast<double>(n);
    now = done + overshoot(rng);  // the sleep returns late
  }
  EXPECT_NEAR(bytes / (done - start), rate, rate * 1e-3);
}

// Idle link time beyond the small burst credit is not banked: a sender
// returning after a long pause cannot exceed the rate by more than the
// credit allows.
TEST(Pacer, IdleTimeIsNotBanked) {
  Pacer pacer(0.0002);
  const double rate = 1e6;
  double done = pacer.reserve(1000, rate, 0.0);
  EXPECT_DOUBLE_EQ(done, 0.0 - 0.0002 + 0.001);
  const double later = 5.0;
  done = pacer.reserve(1000, rate, later);
  EXPECT_NEAR(done, later - 0.0002 + 0.001, 1e-12);
  done = pacer.reserve(1000, rate, later);  // back to back: queued behind
  EXPECT_NEAR(done, later - 0.0002 + 0.002, 1e-12);
}

// Open-loop accounting: due times never move, lateness is measured against
// them, and a stall charges every block it delays.
TEST(OpenLoop, LatenessIsAgainstTheSchedule) {
  OpenLoop loop(10.0, 0.01);
  EXPECT_DOUBLE_EQ(loop.due(0), 10.0);
  EXPECT_DOUBLE_EQ(loop.due(3), 10.03);
  EXPECT_DOUBLE_EQ(loop.issue(0, 10.0), 0.0);
  EXPECT_NEAR(loop.issue(1, 10.05), 0.04, 1e-12);  // stalled generator
  EXPECT_NEAR(loop.issue(2, 10.05), 0.03, 1e-12);  // still behind
  EXPECT_DOUBLE_EQ(loop.issue(3, 10.02), 0.0);     // early never counts
  ASSERT_EQ(loop.lateness().size(), 4u);
  EXPECT_NEAR(percentile(loop.lateness(), 100), 0.04, 1e-12);
  // Latency of a block delivered at t is t - due, whenever it was issued.
  EXPECT_NEAR(10.06 - loop.due(2), 0.04, 1e-12);
}

TEST(WindowRecorder, ClosesWindowsAndFoldsAShortTail) {
  WindowRecorder rec(0.2);
  rec.start();
  rec.mark(1, 1);  // too early: the window stays open
  EXPECT_TRUE(rec.windows().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  rec.mark(10, 5);
  ASSERT_EQ(rec.windows().size(), 1u);
  EXPECT_EQ(rec.windows()[0].delivered_bytes, 10);
  EXPECT_GE(rec.windows()[0].wall_s, 0.2);
  rec.mark(12, 6, true);  // a tail under half a window joins the last one
  ASSERT_EQ(rec.windows().size(), 1u);
  EXPECT_EQ(rec.windows()[0].delivered_bytes, 12);
  EXPECT_EQ(rec.windows()[0].published_bytes, 6);
}

TEST(SelfTimer, NestedSpansCloseTheBudget) {
  SelfTimer timer;
  timer.attach();
  {
    const Span outer(Layer::kEngineSendAll);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      const Span inner(Layer::kTransportLink);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  timer.detach();
  EXPECT_GE(timer.self_s(Layer::kEngineSendAll), 0.019);
  EXPECT_LT(timer.self_s(Layer::kEngineSendAll), 0.029);
  EXPECT_GE(timer.self_s(Layer::kTransportLink), 0.009);
  EXPECT_LE(timer.covered_s(), timer.wall_s());
  EXPECT_GT(timer.covered_s() / timer.wall_s(), 0.99);
  // Spans on a thread without a timer record nothing.
  const double before = timer.covered_s();
  { const Span idle(Layer::kBenchWait); }
  EXPECT_EQ(timer.covered_s(), before);
}

TEST(Inputs, SameSeedSameBytes) {
  EXPECT_EQ(input_checksum(commercial_blocks(3, 4, 4096)),
            input_checksum(commercial_blocks(3, 4, 4096)));
  EXPECT_NE(input_checksum(commercial_blocks(3, 4, 4096)),
            input_checksum(commercial_blocks(4, 4, 4096)));
  const std::vector<Bytes> mol = molecular_blocks(5, 3, 65536);
  ASSERT_EQ(mol.size(), 3u);
  for (const Bytes& b : mol) EXPECT_EQ(b.size(), 65536u);
}

// Every workload end to end for one second, untraced and traced: all
// deliveries verified, and each mode reports what it promises.
class Smoke : public ::testing::TestWithParam<const char*> {};

TEST_P(Smoke, RunsCleanEndToEnd) {
  const std::string workload = GetParam();
  const auto run = [&](bool trace) {
    Options opts;
    opts.seed = 3;
    opts.seconds = 1.0;
    opts.trace = trace;
    if (workload == "bulk_link") return run_bulk_link(opts);
    if (workload == "daemon_live") return run_daemon_live(opts);
    return run_shm_fanout(opts);
  };
  const Outcome plain = run(false);
  EXPECT_GT(plain.attempted, 0u);
  EXPECT_EQ(plain.failed, 0u);
  std::set<std::string> names;
  for (const Metric& m : plain.metrics) names.insert(m.name);
  for (const char* n : {"setup_s", "goodput_MiBps", "wire_ratio_pct", "cpu_s_per_GiB",
                        "deliver_p50_ms", "deliver_p99_ms", "failed_pct", "rss_peak_MiB"}) {
    EXPECT_TRUE(names.count(n)) << n;
  }
  EXPECT_EQ(plain.input_checksum.size(), 16u);

  const Outcome traced = run(true);
  EXPECT_GT(traced.attempted, 0u);
  EXPECT_EQ(traced.failed, 0u);
  bool closure = false;
  for (const Metric& m : traced.metrics) {
    if (m.name == "bench.budget_closure_pct") {
      closure = true;
      EXPECT_GE(m.value, 95.0);
    }
  }
  EXPECT_TRUE(closure);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("bulk_link", "daemon_live", "shm_fanout"));

}  // namespace
}  // namespace acexbench
