// Observability layer (DESIGN.md §9): instruments, registry, tracer,
// exporters, the telemetry robustness contract, and the obs counters the
// transport layer mirrors. Suite names all start with Obs* so the TSan CI
// job picks the whole file up by regex.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "adaptive/telemetry.hpp"
#include "netsim/link.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transport/fault_transport.hpp"
#include "transport/rate_limit.hpp"
#include "transport/retransmit.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"

namespace acex {
namespace {

using obs::BlockTracer;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricPoint;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::ScopedSpan;
using obs::SpanEvent;
using obs::Stage;

std::uint64_t global_counter(const std::string& full_name) {
  const MetricsSnapshot s = MetricsRegistry::global().snapshot();
  const MetricPoint* p = s.find(full_name);
  return p ? p->counter : 0;
}

// ---------------------------------------------------------- instruments

TEST(ObsCounter, CountsExactlyUnderConcurrency) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, TracksLevelsAndStaysSignedOnImbalance) {
  Gauge g;
  g.set(5);
  g.add(3);
  g.sub(10);  // transient imbalance must not wrap
  EXPECT_EQ(g.value(), -2);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsGauge, DeltaUpdatesSumAcrossThreads) {
  // The engine layers update shared gauges by delta (add on enter, sub on
  // exit) so concurrent pools compose; the net must return to zero.
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 5000; ++i) {
        g.add(1);
        g.sub(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogram, BucketEdgesAreHalfOctavesAndConsistent) {
  EXPECT_EQ(Histogram::bucket_lower(0), 0.0);
  // Every value must land in the bucket whose [lower, next-lower) range
  // contains it.
  for (const double v : {0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 100.0, 12345.6, 1e9}) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lower(i), v) << "v=" << v;
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_LT(v, Histogram::bucket_lower(i + 1)) << "v=" << v;
    }
  }
  // Monotone edges.
  for (std::size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_LT(Histogram::bucket_lower(i - 1), Histogram::bucket_lower(i));
  }
}

TEST(ObsHistogram, SnapshotStatsAndQuantileOrdering) {
  Histogram h;
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    h.record(static_cast<double>(i));
    sum += i;
  }
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, sum);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_LE(s.p50(), s.p90());
  EXPECT_LE(s.p90(), s.p99());
  // Half-octave buckets bound quantile error to a factor of sqrt(2).
  EXPECT_GT(s.p50(), 500.0 / 1.5);
  EXPECT_LT(s.p50(), 500.0 * 1.5);
  EXPECT_NEAR(s.mean(), sum / 1000.0, 1e-9);

  h.reset();
  const auto zero = h.snapshot();
  EXPECT_EQ(zero.count, 0u);
  EXPECT_EQ(zero.min, 0.0);
  EXPECT_EQ(zero.p99(), 0.0);
}

TEST(ObsHistogram, ConcurrentRecordsKeepCountAndSumExact) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(2.0);
    });
  }
  for (auto& t : threads) t.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.sum, 2.0 * kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
}

// ------------------------------------------------------------- registry

TEST(ObsRegistry, SameNameSameInstrumentDifferentLabelDifferent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.events", "method", "huffman");
  Counter& b = reg.counter("x.events", "method", "huffman");
  Counter& c = reg.counter("x.events", "method", "lzw");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, KindMismatchThrowsConfigError) {
  MetricsRegistry reg;
  reg.counter("x.value");
  EXPECT_THROW(reg.gauge("x.value"), ConfigError);
  EXPECT_THROW(reg.histogram("x.value"), ConfigError);
}

TEST(ObsRegistry, ResetValuesKeepsCachedReferencesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x.count");
  Gauge& g = reg.gauge("x.depth");
  Histogram& h = reg.histogram("x.us");
  c.add(7);
  g.set(3);
  h.record(12.5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  // The same references keep working after the reset.
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(&c, &reg.counter("x.count"));
}

TEST(ObsRegistry, SnapshotIsOrderedByFullName) {
  MetricsRegistry reg;
  reg.counter("b.second");
  reg.counter("a.first");
  reg.gauge("a.first.child");
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.points.size(), 3u);
  for (std::size_t i = 1; i < s.points.size(); ++i) {
    EXPECT_LT(s.points[i - 1].full_name(), s.points[i].full_name());
  }
  EXPECT_NE(s.find("a.first"), nullptr);
  EXPECT_EQ(s.find("missing"), nullptr);
}

TEST(ObsRegistry, KillSwitchStopsEveryInstrument) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x.count");
  Gauge& g = reg.gauge("x.depth");
  Histogram& h = reg.histogram("x.us");
  obs::set_enabled(false);
  c.add(5);
  g.set(5);
  h.record(5);
  obs::set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

// -------------------------------------------------------- overhead guard

TEST(ObsOverhead, DisabledAndEnabledIncrementsStayWithinBudget) {
  // Guard, not benchmark: the budget is generous enough to pass under
  // ASan/TSan but catches a lock or syscall sneaking onto the hot path
  // (a mutexed increment costs ~20-100 ns uncontended; a syscall, microseconds).
  constexpr int kOps = 200000;
  constexpr double kBudgetNsPerOp = 1000.0;  // 1 us/op, ~50x real cost
  Counter c;

  const auto time_loop = [&](auto&& body) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) body();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(end - start).count() /
           kOps;
  };

  volatile std::uint64_t sink = 0;
  const double null_ns = time_loop([&] { sink = sink + 1; });
  obs::set_enabled(false);
  const double disabled_ns = time_loop([&] { c.add(1); });
  obs::set_enabled(true);
  const double enabled_ns = time_loop([&] { c.add(1); });

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kOps));  // really ran
  EXPECT_LT(disabled_ns, kBudgetNsPerOp);
  EXPECT_LT(enabled_ns, kBudgetNsPerOp);
  // Sanity on the baseline itself so a clock glitch can't hide a regression.
  EXPECT_LT(null_ns, kBudgetNsPerOp);
}

// --------------------------------------------------------------- tracer

TEST(ObsTracer, RecordsSpansInOrderWithSteadyTimestamps) {
  BlockTracer tracer(16);
  const double t0 = tracer.now_us();
  tracer.record(1, Stage::kPlan, t0, t0 + 5.0);
  tracer.record(1, Stage::kEncode, t0 + 5.0, t0 + 30.0, /*worker=*/2);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].stage, Stage::kPlan);
  EXPECT_EQ(spans[1].stage, Stage::kEncode);
  EXPECT_EQ(spans[1].worker, 2);
  EXPECT_DOUBLE_EQ(spans[1].duration_us(), 25.0);
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, RingWrapKeepsNewestAndCountsDropped) {
  BlockTracer tracer(4);
  for (std::uint64_t b = 0; b < 10; ++b) {
    tracer.record(b, Stage::kEncode, 0, 1);
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, and only the most recent history survives.
  EXPECT_EQ(spans.front().block, 6u);
  EXPECT_EQ(spans.back().block, 9u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);

  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.capacity(), 4u);
}

TEST(ObsTracer, DisabledTracerDropsNothingAndRecordsNothing) {
  BlockTracer tracer(8);
  tracer.set_enabled(false);
  tracer.record(1, Stage::kDecode, 0, 1);
  EXPECT_TRUE(tracer.snapshot().empty());
  tracer.set_enabled(true);
  tracer.record(1, Stage::kDecode, 0, 1);
  EXPECT_EQ(tracer.snapshot().size(), 1u);
}

TEST(ObsTracer, ScopedSpanBindsBlockLateAndRecordsOnExit) {
  BlockTracer tracer(8);
  {
    ScopedSpan span(tracer, 0, Stage::kPlan);
    span.set_block(41);  // plan learns the sequence at its end
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].block, 41u);
  EXPECT_EQ(spans[0].stage, Stage::kPlan);
  EXPECT_GE(spans[0].end_us, spans[0].start_us);
}

TEST(ObsTracer, ConcurrentRecordingLosesNothingBelowCapacity) {
  BlockTracer tracer(4096);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const double now = tracer.now_us();
        tracer.record(static_cast<std::uint64_t>(t * kPerThread + i),
                      Stage::kEncode, now, now + 1.0, t);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.recorded(), kThreads * kPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.snapshot().size(), kThreads * kPerThread);
}

// ------------------------------------------------------------- exporters

MetricsSnapshot exporter_fixture() {
  MetricsRegistry reg;
  reg.counter("acex.test.events").add(42);
  reg.counter("acex.test.events", "method", "lempel-ziv").add(7);
  reg.gauge("acex.test.depth").set(-3);
  Histogram& h = reg.histogram("acex.test.us", "method", "huffman");
  h.record(1.5);
  h.record(700.25);
  h.record(1e6 / 3.0);  // a double that needs all 17 digits
  return reg.snapshot();
}

void expect_snapshots_equal(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const MetricPoint& x = a.points[i];
    const MetricPoint& y = b.points[i];
    EXPECT_EQ(x.full_name(), y.full_name());
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.counter, y.counter);
    EXPECT_EQ(x.gauge, y.gauge);
    EXPECT_EQ(x.hist.count, y.hist.count);
    EXPECT_EQ(x.hist.sum, y.hist.sum);  // bit-exact via %.17g
    EXPECT_EQ(x.hist.min, y.hist.min);
    EXPECT_EQ(x.hist.max, y.hist.max);
    EXPECT_EQ(x.hist.buckets, y.hist.buckets);
  }
}

TEST(ObsExport, JsonLinesRoundTripsPointForPoint) {
  const MetricsSnapshot s = exporter_fixture();
  const MetricsSnapshot parsed = obs::parse_json_lines(obs::to_json_lines(s));
  expect_snapshots_equal(s, parsed);
}

TEST(ObsExport, PrometheusCrossChecksAgainstJsonLines) {
  // The two exporters must describe the same snapshot identically: parse
  // the JSON form back and render both through the Prometheus formatter.
  const MetricsSnapshot s = exporter_fixture();
  const MetricsSnapshot parsed = obs::parse_json_lines(obs::to_json_lines(s));
  EXPECT_EQ(obs::to_prometheus(parsed), obs::to_prometheus(s));
}

TEST(ObsExport, PrometheusFormatBasics) {
  const std::string text = obs::to_prometheus(exporter_fixture());
  EXPECT_NE(text.find("acex_test_events"), std::string::npos);
  EXPECT_NE(text.find("{method=\"lempel-ziv\"}"), std::string::npos);
  EXPECT_NE(text.find("acex_test_us_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("acex_test_us_count"), std::string::npos);
  EXPECT_EQ(obs::prometheus_name("acex.adaptive.encode_us"),
            "acex_adaptive_encode_us");
  EXPECT_EQ(obs::prometheus_name("weird-name/2"), "weird_name_2");
}

TEST(ObsExport, ParserSkipsSpanAndBenchLinesButRejectsGarbage) {
  const MetricsSnapshot s = exporter_fixture();
  BlockTracer tracer(4);
  tracer.record(1, Stage::kDeliver, 0, 2);
  const std::string mixed = std::string("{\"type\":\"bench\",\"name\":\"x\"}\n") +
                            obs::to_json_lines(s) +
                            obs::to_json_lines(tracer.snapshot());
  expect_snapshots_equal(s, obs::parse_json_lines(mixed));
  EXPECT_THROW(obs::parse_json_lines("not json\n"), DecodeError);
  EXPECT_THROW(obs::parse_json_lines("{\"type\":\"counter\"\n"), DecodeError);
}

// -------------------------------------------- telemetry robustness (§3.1)

echo::Event block_event() {
  echo::Event e;
  e.attributes.set_string("acex.t.kind", "block");
  e.attributes.set_int("acex.t.index", 0);
  e.attributes.set_string("acex.t.method", "huffman");
  e.attributes.set_int("acex.t.original", 1000);
  e.attributes.set_int("acex.t.wire", 500);
  e.attributes.set_double("acex.t.compress_us", 123.0);
  return e;
}

TEST(ObsTelemetry, MalformedBlockEventsAreCountedAndSkipped) {
  adaptive::TelemetryAggregator dash;

  echo::Event missing = block_event();
  missing.attributes.erase("acex.t.original");

  echo::Event wrong_type = block_event();
  wrong_type.attributes.set_string("acex.t.wire", "five hundred");

  echo::Event negative = block_event();
  negative.attributes.set_int("acex.t.original", -1);

  echo::Event nan_time = block_event();
  nan_time.attributes.set_double("acex.t.compress_us",
                                 std::nan(""));

  echo::Event empty_method = block_event();
  empty_method.attributes.set_string("acex.t.method", "");

  echo::Event unknown_kind;
  unknown_kind.attributes.set_string("acex.t.kind", "mystery");

  const std::uint64_t before = global_counter("acex.telemetry.malformed");
  for (const auto* e : {&missing, &wrong_type, &negative, &nan_time,
                        &empty_method, &unknown_kind}) {
    EXPECT_TRUE(dash.observe(*e));  // telemetry-kinded, even if unusable
  }
  EXPECT_EQ(dash.malformed(), 6u);
  EXPECT_EQ(dash.blocks(), 0u);  // aggregates untouched
  EXPECT_EQ(dash.original_bytes(), 0u);
  EXPECT_EQ(global_counter("acex.telemetry.malformed"), before + 6);

  // A well-formed event still lands after the garbage.
  EXPECT_TRUE(dash.observe(block_event()));
  EXPECT_EQ(dash.blocks(), 1u);
  EXPECT_EQ(dash.malformed(), 6u);
}

TEST(ObsTelemetry, PublishMetricsFeedsTheChannelAsMetricEvents) {
  MetricsRegistry reg;
  reg.counter("acex.test.events").add(3);
  reg.histogram("acex.test.us").record(50.0);

  echo::EventChannel channel("telemetry");
  adaptive::TelemetryPublisher publisher(channel);
  adaptive::TelemetryAggregator dash;
  std::map<std::string, std::int64_t> values;
  channel.subscribe([&](const echo::Event& e) {
    EXPECT_TRUE(dash.observe(e));
    if (const auto name = e.attributes.get_string("acex.t.name")) {
      values[*name] = e.attributes.get_int("acex.t.value").value_or(
          e.attributes.get_int("acex.t.count").value_or(-1));
    }
  });
  publisher.publish_metrics(reg.snapshot());

  EXPECT_EQ(dash.metrics_seen(), 2u);
  EXPECT_EQ(dash.malformed(), 0u);
  EXPECT_EQ(values.at("acex.test.events"), 3);
  EXPECT_EQ(values.at("acex.test.us"), 1);  // histogram ships its count
}

// --------------------------------- transport instrumentation (satellites)

TEST(ObsRetransmitRing, EvictionUnderPressureMirrorsObsCounters) {
  const std::uint64_t stores0 = global_counter("acex.transport.ring.stores");
  const std::uint64_t evict0 = global_counter("acex.transport.ring.evictions");
  const std::uint64_t refuse0 = global_counter("acex.transport.ring.refusals");

  transport::RetransmitRing ring(4, /*max_retries=*/2);
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    ring.store(seq, Bytes{static_cast<std::uint8_t>(seq)});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.evictions(), 6u);

  // Evicted sequences refuse; held ones replay until the budget runs out.
  EXPECT_EQ(ring.replay(0), nullptr);
  ASSERT_NE(ring.replay(9), nullptr);
  ASSERT_NE(ring.replay(9), nullptr);
  EXPECT_EQ(ring.replay(9), nullptr);  // third hit is out of retries
  EXPECT_EQ(ring.replays(), 2u);
  EXPECT_EQ(ring.refusals(), 2u);

  EXPECT_EQ(global_counter("acex.transport.ring.stores") - stores0, 10u);
  EXPECT_EQ(global_counter("acex.transport.ring.evictions") - evict0,
            ring.evictions());
  EXPECT_EQ(global_counter("acex.transport.ring.refusals") - refuse0,
            ring.refusals());
}

/// Wall-clock sink for the rate limiter (it sleeps the calling thread).
class WallClockSink final : public transport::Transport {
 public:
  void send(ByteView message) override { bytes_ += message.size(); }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }
  std::size_t bytes() const noexcept { return bytes_; }

 private:
  MonotonicClock clock_;
  std::size_t bytes_ = 0;
};

TEST(ObsRateLimit, ThrottleAndBytePathsFeedObsCounters) {
  const std::uint64_t bytes0 = global_counter("acex.transport.limit.bytes");
  const std::uint64_t thr0 = global_counter("acex.transport.limit.throttles");

  WallClockSink sink;
  // Deficit bucket at 1 MiB/s with a 1 KiB burst: send one spends the
  // burst, send two drives the balance negative, so send three must wait
  // ~1 ms for the deficit to refill — that's the throttle path.
  transport::RateLimitedTransport limited(sink, 1024.0 * 1024.0, 1024);
  const Bytes message(1024, std::uint8_t{0xAB});
  limited.send(message);
  limited.send(message);
  limited.send(message);

  EXPECT_EQ(sink.bytes(), 3072u);
  EXPECT_EQ(global_counter("acex.transport.limit.bytes") - bytes0, 3072u);
  EXPECT_GE(global_counter("acex.transport.limit.throttles") - thr0, 1u);
  EXPECT_GE(global_counter("acex.transport.limit.throttle_us"), 1u);
}

// ------------------------------------- end to end: 8 workers over faults

TEST(ObsEndToEnd, EightWorkerStreamMatchesTransportCountersExactly) {
  // Deltas, not absolutes: obs counters are process-wide and other tests
  // in this binary touch the same instruments.
  const std::uint64_t msg0 = global_counter("acex.transport.fault.messages");
  const std::uint64_t flip0 = global_counter("acex.transport.fault.bit_flips");
  const std::uint64_t clean0 = global_counter("acex.transport.fault.clean");
  const std::uint64_t drop0 = global_counter("acex.transport.fault.drops");
  const std::uint64_t dup0 = global_counter("acex.transport.fault.duplicates");
  const std::uint64_t reord0 = global_counter("acex.transport.fault.reorders");
  const std::uint64_t blocks0 = global_counter("acex.adaptive.blocks");
  const std::uint64_t nacks0 = global_counter("acex.adaptive.rx.nacks_issued");

  VirtualClock clock;
  netsim::LinkParams flat;
  flat.jitter_frac = 0;
  netsim::SimLink forward(flat, 11), reverse(flat, 12);
  transport::SimDuplex duplex(forward, reverse, clock);

  transport::FaultConfig faults;
  faults.bit_flip_prob = 0.05;
  faults.drop_prob = 0.02;
  faults.duplicate_prob = 0.02;
  faults.seed = 99;
  transport::FaultInjectingTransport lossy(duplex.a(), faults);

  adaptive::AdaptiveConfig config;
  config.async_sampling = false;
  config.decision.block_size = 4096;
  config.decision.sample_size = 1024;
  config.worker_threads = 8;
  config.retransmit_capacity = 64;
  config.retransmit_max_retries = 4;
  adaptive::AdaptiveSender sender(lossy, config);
  adaptive::AdaptiveReceiver rx(duplex.b(),
                                {adaptive::RecoveryPolicy::kNack, 4});

  Bytes data;
  for (int i = 0; i < 32 * 4096; ++i) {
    data.push_back(static_cast<std::uint8_t>("configurable compression "[i % 25]));
  }
  const adaptive::StreamReport stream = sender.send_all(data);
  lossy.flush();

  std::map<std::uint64_t, Bytes> recovered;
  const auto absorb = [&](const adaptive::ReceiveReport& report) {
    for (const adaptive::FrameOutcome& f : report.frames) {
      if (f.status == adaptive::FrameOutcome::Status::kOk) {
        recovered.emplace(f.sequence, f.data);
      }
    }
  };
  absorb(rx.receive_report());
  std::uint64_t nacks_issued = 0;
  for (int round = 0; round < 16; ++round) {
    const std::vector<std::uint64_t> nacks = rx.take_nacks();
    if (nacks.empty()) break;
    nacks_issued += nacks.size();
    sender.retransmit(nacks);
    lossy.flush();
    absorb(rx.receive_report());
  }
  EXPECT_EQ(recovered.size(), stream.blocks.size());

  const transport::FaultCounters& c = lossy.counters();
  EXPECT_EQ(global_counter("acex.transport.fault.messages") - msg0,
            c.messages);
  EXPECT_EQ(global_counter("acex.transport.fault.bit_flips") - flip0,
            c.bit_flips);
  EXPECT_EQ(global_counter("acex.transport.fault.clean") - clean0, c.clean);
  EXPECT_EQ(global_counter("acex.transport.fault.drops") - drop0, c.drops);
  EXPECT_EQ(global_counter("acex.transport.fault.duplicates") - dup0,
            c.duplicates);
  EXPECT_EQ(global_counter("acex.transport.fault.reorders") - reord0,
            c.reorders);
  EXPECT_EQ(global_counter("acex.adaptive.blocks") - blocks0,
            stream.blocks.size());
  EXPECT_EQ(global_counter("acex.adaptive.rx.nacks_issued") - nacks0,
            nacks_issued);

  // The per-method latency histograms saw every block on each side.
  const MetricsSnapshot s = MetricsRegistry::global().snapshot();
  std::uint64_t encode_count = 0;
  for (const MetricPoint& p : s.points) {
    if (p.kind == MetricPoint::Kind::kHistogram &&
        p.name == "acex.adaptive.encode_us") {
      encode_count += p.hist.count;
      if (p.hist.count > 0) {
        EXPECT_LE(p.hist.p50(), p.hist.p99());
      }
    }
  }
  EXPECT_GE(encode_count, stream.blocks.size());
}

}  // namespace
}  // namespace acex
