// acexstat — observability smoke tool: drives a parallel adaptive stream
// over a fault-injecting simulated link, then prints the metrics registry
// and block-lifecycle trace that run produced (DESIGN.md §9).
//
//   acexstat [-w WORKERS] [-n BLOCKS] [-b BLOCK_KIB] [-s SEED]
//            [--json PATH] [--prom PATH] [--spans]
//   acexstat --broker SUBS [-n BLOCKS] [-b BLOCK_KIB] [-s SEED]
//   acexstat --chaos SESSIONS [-s SEED]
//   acexstat --shm SUBS [-n BLOCKS] [-b BLOCK_KIB] [-w WORKERS]
//
// The run itself doubles as a consistency check: the obs counters mirrored
// by FaultInjectingTransport must match the injector's own tallies exactly,
// the NACK/retransmit counters must match the sender/receiver bookkeeping,
// and every histogram must satisfy p50 <= p99. Any violation exits 1 —
// CI runs this binary as a test.
//
// --chaos SESSIONS runs the session-resilience battery instead: SESSIONS
// durable sessions are killed and reconnected mid-stream over faulted
// links (qa::run_chaos), and every `acex.session.*` series is checked
// against the chaos harness's own ground truth. Any mismatch exits 1.
//
// --broker SUBS runs the fan-out demo instead: SUBS subscribers on
// heterogeneous links (half fast, half slow, every fourth one faulted)
// receive the same block stream through one FanoutBroker, and every
// broker obs series — blocks, encode-cache hits/misses, per-subscriber
// frames/drops/fallbacks — is checked against the broker's own ground
// truth and the receivers' byte-exact recovery. Any mismatch exits 1.
//
// --shm SUBS runs the shared-memory fan-out demo instead: SUBS ShmBus
// endpoints receive the same block stream as descriptor-only messages
// staged once into refcounted slabs (DESIGN.md §16), verified byte-
// identical to the frames a plain capture transport would have carried,
// then a deliberately undersized ring exercises the force-reclaim /
// stale-descriptor / stale-release ladder. Every `acex.shm.*` series is
// checked against the ring's and endpoints' own ground truth.
//
// --json / --prom write the same snapshot through the JSON-lines or
// Prometheus exporter ("-" for stdout); --spans dumps the raw span ring.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "broker/broker.hpp"
#include "netsim/link.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qa/chaos.hpp"
#include "shm/bus.hpp"
#include "transport/fault_transport.hpp"
#include "transport/sim_transport.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace {

using namespace acex;

struct Options {
  std::size_t workers = 8;
  std::size_t blocks = 64;
  std::size_t block_kib = 4;
  std::uint64_t seed = 17;
  std::size_t broker_subs = 0;  // > 0 switches to the fan-out demo
  std::size_t chaos_sessions = 0;  // > 0 switches to the chaos battery
  std::size_t shm_subs = 0;  // > 0 switches to the shared-memory demo
  std::string json_path;  // empty = off, "-" = stdout
  std::string prom_path;
  bool dump_spans = false;
};

netsim::LinkParams flat_link(double bps) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bps;
  p.jitter_frac = 0;
  p.latency_s = 0;
  return p;
}

/// Deterministic test payload: repetitive text with a pseudo-random block
/// mixed in every fourth block, so the selector exercises several methods.
Bytes make_payload(std::size_t blocks, std::size_t block_size,
                   std::uint64_t seed) {
  Bytes data;
  data.reserve(blocks * block_size);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  const char* words[] = {"exchange ", "configurable ", "compression ",
                         "adaptive "};
  for (std::size_t b = 0; b < blocks; ++b) {
    if (b % 4 == 3) {
      for (std::size_t i = 0; i < block_size; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        data.push_back(static_cast<std::uint8_t>(x));
      }
    } else {
      while (data.size() < (b + 1) * block_size) {
        const char* w = words[(b + data.size() / 16) % 4];
        for (const char* c = w; *c && data.size() < (b + 1) * block_size; ++c) {
          data.push_back(static_cast<std::uint8_t>(*c));
        }
      }
    }
  }
  return data;
}

void write_output(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot create " + path);
  out << text;
  if (!out) throw IoError("failed writing " + path);
}

/// One cross-check line; returns false (and complains) on mismatch.
bool check_eq(const char* what, std::uint64_t obs_value,
              std::uint64_t expected, int& failures) {
  if (obs_value == expected) return true;
  std::fprintf(stderr, "acexstat: MISMATCH %s: obs=%llu expected=%llu\n", what,
               static_cast<unsigned long long>(obs_value),
               static_cast<unsigned long long>(expected));
  ++failures;
  return false;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot,
                            const std::string& name) {
  const obs::MetricPoint* p = snapshot.find(name);
  return p ? p->counter : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: acexstat [-w WORKERS] [-n BLOCKS] [-b BLOCK_KIB] "
               "[-s SEED] [--json PATH] [--prom PATH] [--spans]\n"
               "       acexstat --broker SUBS [-n BLOCKS] [-b BLOCK_KIB] "
               "[-s SEED]\n"
               "       acexstat --chaos SESSIONS [-s SEED]\n"
               "       acexstat --shm SUBS [-n BLOCKS] [-b BLOCK_KIB] "
               "[-w WORKERS]\n");
  return 2;
}

// ------------------------------------------------------ fan-out demo mode
/// One broker subscriber endpoint for the demo: its own sim duplex (all on
/// a shared virtual clock), optionally behind a fault injector, with a
/// NACK receiver draining the far side.
struct DemoSubscriber {
  std::unique_ptr<netsim::SimLink> forward;
  std::unique_ptr<netsim::SimLink> reverse;
  std::unique_ptr<transport::SimDuplex> duplex;
  std::unique_ptr<transport::FaultInjectingTransport> lossy;  // may be null
  std::unique_ptr<adaptive::AdaptiveReceiver> rx;
  broker::SubscriberId id = 0;
  std::string name;
  bool faulted = false;
  std::map<std::uint64_t, std::uint32_t> recovered;  // sequence -> crc32
};

int run_broker_demo(const Options& opt) {
  obs::MetricsRegistry::global().reset_values();
  obs::BlockTracer::global().clear();

  const std::size_t block_size = opt.block_kib * 1024;
  VirtualClock clock;
  broker::BrokerConfig bc;
  bc.worker_threads = opt.workers;
  broker::FanoutBroker broker(bc);

  // Heterogeneous fleet: even subscribers ride a fast link, odd ones a slow
  // link (so the planners pick different methods and the encode cache has
  // real groups to share), and every fourth link drops/corrupts frames.
  std::vector<std::unique_ptr<DemoSubscriber>> subs;
  for (std::size_t i = 0; i < opt.broker_subs; ++i) {
    auto sub = std::make_unique<DemoSubscriber>();
    const bool fast = i % 2 == 0;
    const double link_bps = fast ? 5e7 : 2e5;
    sub->forward = std::make_unique<netsim::SimLink>(flat_link(link_bps),
                                                     opt.seed + i * 2);
    sub->reverse = std::make_unique<netsim::SimLink>(flat_link(1e9),
                                                     opt.seed + i * 2 + 1);
    sub->duplex = std::make_unique<transport::SimDuplex>(
        *sub->forward, *sub->reverse, clock);
    transport::Transport* wire = &sub->duplex->a();
    if (i % 4 == 3) {
      sub->faulted = true;
      transport::FaultConfig faults;
      faults.drop_prob = 0.05;
      faults.bit_flip_prob = 0.02;
      faults.seed = opt.seed * 31 + i;
      sub->lossy = std::make_unique<transport::FaultInjectingTransport>(
          *wire, faults);
      wire = sub->lossy.get();
    }
    adaptive::ReceiverConfig rc;
    rc.policy = adaptive::RecoveryPolicy::kNack;
    rc.nack_retry_cap = 4;
    sub->rx =
        std::make_unique<adaptive::AdaptiveReceiver>(sub->duplex->b(), rc);

    broker::SubscriberConfig sc;
    sub->name = (fast ? "fast-" : "slow-") + std::to_string(i);
    if (sub->faulted) sub->name += "-faulted";
    sc.name = sub->name;
    sc.adaptive.decision.block_size = block_size;
    sc.adaptive.decision.sample_size = std::min<std::size_t>(1024, block_size);
    sc.adaptive.initial_bandwidth_Bps = link_bps;
    sc.adaptive.retransmit_capacity = opt.blocks + 8;
    sc.adaptive.retransmit_max_retries = 4;
    sc.egress_capacity = opt.blocks + 8;
    sub->id = broker.subscribe(*wire, sc);
    subs.push_back(std::move(sub));
  }

  // Publish the stream, pump every subscriber, drain + NACK-replay the
  // faulted ones until every receiver has every block.
  const Bytes data = make_payload(opt.blocks, block_size, opt.seed);
  std::vector<std::uint32_t> truth;
  for (std::size_t at = 0; at < data.size(); at += block_size) {
    const std::size_t len = std::min(block_size, data.size() - at);
    const ByteView block(data.data() + at, len);
    truth.push_back(crc32(block));
    broker.publish(block);
  }

  int failures = 0;
  const auto drain = [&](DemoSubscriber& sub) {
    for (const adaptive::FrameOutcome& f : sub.rx->receive_report().frames) {
      if (f.status != adaptive::FrameOutcome::Status::kOk) continue;
      if (f.sequence >= truth.size()) {
        std::fprintf(stderr, "acexstat: %s got unpublished sequence %llu\n",
                     sub.name.c_str(),
                     static_cast<unsigned long long>(f.sequence));
        ++failures;
        continue;
      }
      const std::uint32_t got = crc32(f.data);
      sub.recovered.emplace(f.sequence, got);
      if (got != truth[static_cast<std::size_t>(f.sequence)]) {
        std::fprintf(stderr, "acexstat: %s block %llu payload diverged\n",
                     sub.name.c_str(),
                     static_cast<unsigned long long>(f.sequence));
        ++failures;
      }
    }
  };
  for (auto& sub : subs) {
    broker.pump(sub->id);
    if (sub->lossy) sub->lossy->flush();
    drain(*sub);
    for (int round = 0; round < 16; ++round) {
      const std::vector<std::uint64_t> nacks = sub->rx->take_nacks();
      if (nacks.empty()) break;
      broker.retransmit(sub->id, nacks);
      broker.pump(sub->id);
      if (sub->lossy) sub->lossy->flush();
      drain(*sub);
    }
  }

  // ---------------------- obs counters vs ground truth, per subscriber --
  auto& reg = obs::MetricsRegistry::global();
  const broker::BrokerStats bs = broker.stats();
  std::uint64_t total_frames = 0;
  for (auto& sub : subs) {
    const broker::SubscriberStats ss = broker.subscriber_stats(sub->id);
    total_frames += ss.frames;
    const std::string tag = "sub." + sub->name;
    check_eq((tag + ".frames").c_str(),
             reg.counter("acex.broker.sub.frames", "subscriber", sub->name)
                 .value(),
             ss.frames, failures);
    check_eq((tag + ".drops").c_str(),
             reg.counter("acex.broker.sub.drops", "subscriber", sub->name)
                 .value(),
             ss.drops, failures);
    check_eq((tag + ".fallbacks").c_str(),
             reg.counter("acex.broker.sub.fallbacks", "subscriber", sub->name)
                 .value(),
             ss.fallbacks, failures);
    check_eq((tag + ".recovered").c_str(), sub->recovered.size(),
             truth.size(), failures);
    if (broker.disconnected(sub->id)) {
      std::fprintf(stderr, "acexstat: %s disconnected unexpectedly\n",
                   sub->name.c_str());
      ++failures;
    }
  }

  // Broker-wide identities: every series equals the broker's bookkeeping,
  // the cache accounts for every planned frame, and misses == codec runs.
  check_eq("broker.blocks",
           reg.counter("acex.broker.blocks").value(), bs.blocks, failures);
  check_eq("broker.blocks.truth", bs.blocks, truth.size(), failures);
  // Uniform block sizes: one shared sample per publish.
  check_eq("broker.samples",
           reg.counter("acex.broker.samples").value(), bs.samples, failures);
  check_eq("broker.samples.truth", bs.samples, truth.size(), failures);
  check_eq("broker.cache.hits",
           reg.counter("acex.broker.encode_cache.hits").value(), bs.cache_hits,
           failures);
  check_eq("broker.cache.misses",
           reg.counter("acex.broker.encode_cache.misses").value(),
           bs.cache_misses, failures);
  check_eq("broker.encodes==misses", bs.encodes, bs.cache_misses, failures);
  check_eq("broker.cache.total", bs.cache_hits + bs.cache_misses,
           total_frames, failures);
  check_eq("broker.subscribers",
           static_cast<std::uint64_t>(
               reg.gauge("acex.broker.subscribers").value()),
           subs.size(), failures);
  // Fault mirror: the only injectors alive are the demo's own.
  std::uint64_t fault_messages = 0;
  for (const auto& sub : subs) {
    if (sub->lossy) fault_messages += sub->lossy->counters().messages;
  }
  check_eq("fault.messages",
           reg.counter("acex.transport.fault.messages").value(),
           fault_messages, failures);

  const double hit_ratio =
      bs.cache_hits + bs.cache_misses == 0
          ? 0.0
          : static_cast<double>(bs.cache_hits) /
                static_cast<double>(bs.cache_hits + bs.cache_misses);
  std::printf(
      "acexstat --broker: %zu subscribers x %zu blocks (%zu KiB), seed %llu\n"
      "  encodes %llu, cache hits %llu (%.1f%% shared), last block had %llu "
      "method group(s)\n"
      "  every subscriber recovered %zu/%zu blocks byte-exact\n",
      subs.size(), truth.size(), opt.block_kib,
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(bs.encodes),
      static_cast<unsigned long long>(bs.cache_hits), hit_ratio * 100.0,
      static_cast<unsigned long long>(bs.last_groups), truth.size(),
      truth.size());
  if (failures != 0) {
    std::fprintf(stderr, "acexstat: %d broker consistency check(s) FAILED\n",
                 failures);
    return 1;
  }
  std::printf("  obs counters match ground truth on every series\n");
  return 0;
}

// ----------------------------------------- shared-memory fan-out demo
/// Reference sink: what the TCP path would have carried, frame by frame.
struct ShmDemoCapture final : transport::Transport {
  void send(ByteView message) override {
    frames.emplace_back(message.begin(), message.end());
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }
  std::vector<Bytes> frames;

 private:
  MonotonicClock clock_;
};

int run_shm_demo(const Options& opt) {
  obs::MetricsRegistry::global().reset_values();
  obs::BlockTracer::global().clear();

  const std::size_t block_size = opt.block_kib * 1024;
  const Bytes data = make_payload(opt.blocks, block_size, opt.seed);
  int failures = 0;
  auto& reg = obs::MetricsRegistry::global();

  // Phase 1: fan out through a well-sized slab ring and verify the
  // descriptor path carries frames byte-identical to a capture transport.
  shm::ShmBusConfig bus_cfg;
  bus_cfg.ring.slab_count = opt.blocks + 16;
  bus_cfg.ring.slab_size = block_size + 512;
  bus_cfg.queue_capacity = opt.blocks + 8;
  shm::RingStats ring_truth;
  shm::ShmBusStats bus_truth;
  std::uint64_t stale_descriptors = 0;
  {
    const auto fan_out = [&](shm::ShmBus* bus) {
      broker::BrokerConfig bc;
      bc.worker_threads = opt.workers;
      if (bus != nullptr) bc.frame_builder = bus->frame_builder();
      broker::FanoutBroker broker(bc);
      std::vector<std::unique_ptr<shm::ShmEndpoint>> eps;
      std::vector<std::unique_ptr<ShmDemoCapture>> sinks;
      for (std::size_t i = 0; i < opt.shm_subs; ++i) {
        broker::SubscriberConfig sc;
        sc.adaptive.decision.block_size = block_size;
        sc.adaptive.decision.sample_size =
            std::min<std::size_t>(1024, block_size);
        sc.egress_capacity = opt.blocks + 8;
        if (bus != nullptr) {
          eps.push_back(bus->endpoint());
          broker.subscribe(*eps.back(), sc);
        } else {
          sinks.push_back(std::make_unique<ShmDemoCapture>());
          broker.subscribe(*sinks.back(), sc);
        }
      }
      for (std::size_t at = 0; at < data.size(); at += block_size) {
        broker.publish(
            ByteView(data.data() + at, std::min(block_size, data.size() - at)));
      }
      broker.pump_all();

      if (bus != nullptr) {
        // Mid-flight, with every frame still pinned by descriptors and
        // retransmit rings: the gauges must mirror the ring exactly.
        const shm::RingStats mid = bus->ring().stats();
        check_eq("shm.slabs_in_use.gauge",
                 static_cast<std::uint64_t>(
                     reg.gauge("acex.shm.slabs_in_use").value()),
                 mid.slabs_in_use, failures);
        check_eq("shm.occupancy.gauge",
                 static_cast<std::uint64_t>(
                     reg.gauge("acex.shm.ring.occupancy_pct").value()),
                 static_cast<std::uint64_t>(100.0 * mid.slabs_in_use /
                                            static_cast<double>(mid.slab_count)),
                 failures);
      }
      std::vector<std::vector<Bytes>> out(opt.shm_subs);
      for (std::size_t i = 0; i < opt.shm_subs; ++i) {
        if (bus != nullptr) {
          while (auto frame = eps[i]->receive()) out[i].push_back(*frame);
          stale_descriptors += eps[i]->stats().stale_descriptors;
        } else {
          out[i] = sinks[i]->frames;
        }
      }
      return out;
    };

    const auto reference = fan_out(nullptr);
    shm::ShmBus bus(bus_cfg);
    const auto via_shm = fan_out(&bus);
    for (std::size_t i = 0; i < opt.shm_subs; ++i) {
      if (reference[i] != via_shm[i]) {
        std::fprintf(stderr,
                     "acexstat: MISMATCH shm subscriber %zu frames differ "
                     "from the capture path\n", i);
        ++failures;
      }
      check_eq("shm.frames_per_sub", via_shm[i].size(), opt.blocks, failures);
    }
    ring_truth = bus.ring().stats();
    bus_truth = bus.stats();
    check_eq("shm.copy_fallbacks.phase1", bus_truth.copy_fallbacks, 0,
             failures);
    check_eq("shm.staged_frames", bus_truth.staged, opt.blocks, failures);
  }

  // Phase 2: a deliberately undersized ring (2 slabs, zero reclaim grace)
  // walks the whole degradation ladder — force-reclaim, stale descriptor,
  // stale release, corrupt injection — so the failure-path series have
  // real ground truth to be checked against.
  shm::ShmBusConfig tiny_cfg;
  tiny_cfg.ring.slab_count = 2;
  tiny_cfg.ring.slab_size = 4096;
  tiny_cfg.ring.reclaim_wait = 0;
  shm::ShmBus tiny(tiny_cfg);
  {
    const auto ep = tiny.endpoint();
    const Bytes small(64, 0x5A);
    // A held view outliving its slab: send/receive one, keep the view
    // pinned while two more sends force-reclaim its slab underneath it.
    ep->send(small);
    std::optional<BufferView> held = ep->receive_buffer();
    if (!held) {
      std::fprintf(stderr, "acexstat: shm stress receive came up empty\n");
      return 1;
    }
    ep->send(small);
    ep->send(small);  // ring full: force-reclaims the held view's slab
    held.reset();     // stale release: the slab moved on without us
    // A queued descriptor outliving its slab: fill both slabs with queued
    // sends, then a third send reclaims the oldest while still queued.
    while (ep->receive_buffer()) {
    }
    ep->send(small);
    ep->send(small);
    ep->send(small);
    // Garbage on the wire is counted and skipped, never fatal.
    ep->inject_raw(Bytes{0xDE, 0xAD, 0xBE, 0xEF});
    while (ep->receive_buffer()) {
    }
    stale_descriptors += ep->stats().stale_descriptors;
    check_eq("shm.stress.corrupt", ep->stats().corrupt_descriptors, 1,
             failures);
    check_eq("shm.stress.stale", ep->stats().stale_descriptors, 1, failures);
  }
  const shm::RingStats tiny_truth = tiny.ring().stats();
  const shm::ShmBusStats tiny_bus = tiny.stats();

  // Every acex.shm.* series must equal the sum of the two rings' own
  // bookkeeping (the instruments are process-global, the truth is not).
  check_eq("shm.copy_fallbacks",
           reg.counter("acex.shm.copy_fallbacks").value(),
           bus_truth.copy_fallbacks + tiny_bus.copy_fallbacks, failures);
  check_eq("shm.force_reclaims",
           reg.counter("acex.shm.force_reclaims").value(),
           ring_truth.force_reclaims + tiny_truth.force_reclaims, failures);
  check_eq("shm.stale_releases",
           reg.counter("acex.shm.stale_releases").value(),
           ring_truth.stale_releases + tiny_truth.stale_releases, failures);
  check_eq("shm.stale_descriptors",
           reg.counter("acex.shm.stale_descriptors").value(),
           stale_descriptors, failures);
  check_eq("shm.reclaim_wait.count",
           reg.histogram("acex.shm.reclaim_wait_seconds").count(),
           ring_truth.reclaim_waits + tiny_truth.reclaim_waits, failures);
  check_eq("shm.stress.force_reclaims", tiny_truth.force_reclaims, 2,
           failures);
  // Everything was drained and released: the gauges must read empty.
  check_eq("shm.slabs_in_use.final",
           static_cast<std::uint64_t>(
               reg.gauge("acex.shm.slabs_in_use").value()),
           ring_truth.slabs_in_use + tiny_truth.slabs_in_use, failures);

  std::printf(
      "acexstat --shm: %zu subscribers x %zu blocks (%zu KiB), %zu workers\n"
      "  staged %llu frames (%llu bytes) once each, %llu zero-copy "
      "deliveries, 0 copy fallbacks\n"
      "  stress ring: %llu force-reclaims, %llu stale releases, %llu stale "
      "descriptors, all typed and counted\n",
      opt.shm_subs, opt.blocks, opt.block_kib,
      opt.workers,
      static_cast<unsigned long long>(bus_truth.staged),
      static_cast<unsigned long long>(bus_truth.staged_bytes),
      static_cast<unsigned long long>(
          static_cast<std::uint64_t>(opt.shm_subs) * opt.blocks),
      static_cast<unsigned long long>(tiny_truth.force_reclaims),
      static_cast<unsigned long long>(tiny_truth.stale_releases),
      static_cast<unsigned long long>(stale_descriptors));
  if (failures != 0) {
    std::fprintf(stderr, "acexstat: %d shm consistency check(s) FAILED\n",
                 failures);
    return 1;
  }
  std::printf("  shm obs series match ground truth on every series, frames "
              "byte-identical to the capture path\n");
  return 0;
}

// -------------------------------------------------- chaos battery mode
int run_chaos_stat(const Options& opt) {
  // Reset first so the session series are exactly this run's ground truth
  // (the harness's own mirror checks use deltas; here we can be absolute).
  obs::MetricsRegistry::global().reset_values();
  obs::BlockTracer::global().clear();

  qa::ChaosConfig config;
  config.sessions = opt.chaos_sessions;
  config.seed = opt.seed;
  const qa::ChaosReport report = qa::run_chaos(config);

  int failures = 0;
  for (const std::string& violation : report.violations) {
    std::fprintf(stderr, "acexstat: CHAOS VIOLATION %s\n", violation.c_str());
    ++failures;
  }

  auto& reg = obs::MetricsRegistry::global();
  check_eq("session.resumes", reg.counter("acex.session.resumes").value(),
           report.resumes, failures);
  check_eq("session.restarts", reg.counter("acex.session.restarts").value(),
           report.restarts, failures);
  check_eq("session.expired", reg.counter("acex.session.expired").value(),
           report.expired, failures);
  check_eq("session.heartbeats", reg.counter("acex.session.heartbeats").value(),
           report.heartbeats, failures);
  // Every session ends the run attached: live gauge full, parked empty,
  // and the budget ladder back at its normal stage.
  check_eq("session.live",
           static_cast<std::uint64_t>(reg.gauge("acex.session.live").value()),
           opt.chaos_sessions, failures);
  check_eq("session.parked",
           static_cast<std::uint64_t>(reg.gauge("acex.session.parked").value()),
           0, failures);
  check_eq("budget.stage",
           static_cast<std::uint64_t>(reg.gauge("acex.budget.stage").value()),
           0, failures);

  std::printf(
      "acexstat --chaos: %zu sessions, seed %llu, %zu rounds, %llu blocks\n"
      "  kills %llu, resumes %llu, restarts %llu, expired %llu, "
      "delivered %llu\n",
      opt.chaos_sessions, static_cast<unsigned long long>(opt.seed),
      report.rounds, static_cast<unsigned long long>(report.published),
      static_cast<unsigned long long>(report.kills),
      static_cast<unsigned long long>(report.resumes),
      static_cast<unsigned long long>(report.restarts),
      static_cast<unsigned long long>(report.expired),
      static_cast<unsigned long long>(report.delivered));
  if (failures != 0) {
    std::fprintf(stderr, "acexstat: %d chaos consistency check(s) FAILED\n",
                 failures);
    return 1;
  }
  std::printf("  session obs series match ground truth, every session "
              "resumed byte-exact\n");
  return 0;
}

int run(const Options& opt) {
  // Scope every series to this run (the instruments themselves are
  // process-wide and permanent; only the values reset).
  obs::MetricsRegistry::global().reset_values();
  obs::BlockTracer::global().clear();

  VirtualClock clock;
  netsim::SimLink forward(flat_link(5e6), opt.seed);
  netsim::SimLink reverse(flat_link(1e9), opt.seed + 1);
  transport::SimDuplex duplex(forward, reverse, clock);

  transport::FaultConfig faults;
  faults.bit_flip_prob = 0.02;
  faults.drop_prob = 0.01;
  faults.duplicate_prob = 0.01;
  faults.reorder_prob = 0.02;
  faults.seed = opt.seed;
  transport::FaultInjectingTransport lossy(duplex.a(), faults);

  adaptive::AdaptiveConfig config;
  config.async_sampling = false;  // deterministic
  config.decision.block_size = opt.block_kib * 1024;
  config.decision.sample_size = std::min<std::size_t>(1024, opt.block_kib * 1024);
  config.worker_threads = opt.workers;
  config.retransmit_capacity = opt.blocks + 8;  // keep every frame replayable
  config.retransmit_max_retries = 4;
  adaptive::AdaptiveSender sender(lossy, config);
  adaptive::AdaptiveReceiver rx(duplex.b(),
                                {adaptive::RecoveryPolicy::kNack, 4});

  const Bytes data =
      make_payload(opt.blocks, config.decision.block_size, opt.seed);
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

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  const std::vector<obs::SpanEvent> spans = obs::BlockTracer::global().snapshot();

  // ------------------------------------------------ consistency checks
  int failures = 0;
  const transport::FaultCounters& c = lossy.counters();
  check_eq("fault.messages",
           counter_value(snapshot, "acex.transport.fault.messages"),
           c.messages, failures);
  check_eq("fault.drops", counter_value(snapshot, "acex.transport.fault.drops"),
           c.drops, failures);
  check_eq("fault.reorders",
           counter_value(snapshot, "acex.transport.fault.reorders"), c.reorders,
           failures);
  check_eq("fault.duplicates",
           counter_value(snapshot, "acex.transport.fault.duplicates"),
           c.duplicates, failures);
  check_eq("fault.bit_flips",
           counter_value(snapshot, "acex.transport.fault.bit_flips"),
           c.bit_flips, failures);
  check_eq("fault.truncations",
           counter_value(snapshot, "acex.transport.fault.truncations"),
           c.truncations, failures);
  check_eq("fault.clean", counter_value(snapshot, "acex.transport.fault.clean"),
           c.clean, failures);
  check_eq("rx.nacks_issued",
           counter_value(snapshot, "acex.adaptive.rx.nacks_issued"),
           nacks_issued, failures);
  check_eq("tx.retransmits",
           counter_value(snapshot, "acex.adaptive.retransmits"),
           sender.degradation().retransmits, failures);
  check_eq("blocks", counter_value(snapshot, "acex.adaptive.blocks"),
           stream.blocks.size(), failures);

  for (const obs::MetricPoint& point : snapshot.points) {
    if (point.kind != obs::MetricPoint::Kind::kHistogram) continue;
    if (point.hist.count == 0) continue;
    if (!(point.hist.p50() <= point.hist.p99())) {
      std::fprintf(stderr, "acexstat: INSANE QUANTILES %s: p50=%g > p99=%g\n",
                   point.full_name().c_str(), point.hist.p50(),
                   point.hist.p99());
      ++failures;
    }
  }

  // ------------------------------------------------------------ output
  std::printf("acexstat: %zu blocks x %zu KiB, %zu workers, seed %llu\n",
              opt.blocks, opt.block_kib, sender.worker_count(),
              static_cast<unsigned long long>(opt.seed));
  std::printf("recovered %zu/%zu blocks, %llu NACKs issued\n\n",
              recovered.size(), stream.blocks.size(),
              static_cast<unsigned long long>(nacks_issued));
  std::fputs(obs::to_text(snapshot).c_str(), stdout);

  // Per-stage span digest: the block lifecycle at a glance.
  std::map<obs::Stage, std::pair<std::uint64_t, double>> stages;
  for (const obs::SpanEvent& span : spans) {
    auto& [count, total] = stages[span.stage];
    ++count;
    total += span.duration_us();
  }
  std::printf("\nspans (%llu recorded, %llu dropped by ring wrap)\n",
              static_cast<unsigned long long>(obs::BlockTracer::global().recorded()),
              static_cast<unsigned long long>(obs::BlockTracer::global().dropped()));
  for (const auto& [stage, acc] : stages) {
    std::printf("  %-10s %8llu spans  mean %10.1f us\n",
                std::string(obs::stage_name(stage)).c_str(),
                static_cast<unsigned long long>(acc.first),
                acc.first ? acc.second / static_cast<double>(acc.first) : 0.0);
  }

  if (opt.dump_spans) {
    std::fputs("\n", stdout);
    std::fputs(obs::to_json_lines(spans).c_str(), stdout);
  }
  if (!opt.json_path.empty()) {
    write_output(opt.json_path,
                 obs::to_json_lines(snapshot) + obs::to_json_lines(spans));
  }
  if (!opt.prom_path.empty()) {
    write_output(opt.prom_path, obs::to_prometheus(snapshot));
  }

  if (failures != 0) {
    std::fprintf(stderr, "acexstat: %d consistency check(s) FAILED\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "-w") {
        opt.workers = std::stoul(next());
      } else if (arg == "--broker") {
        opt.broker_subs = std::stoul(next());
        if (opt.broker_subs == 0) throw ConfigError("--broker must be > 0");
      } else if (arg == "--chaos") {
        opt.chaos_sessions = std::stoul(next());
        if (opt.chaos_sessions == 0) throw ConfigError("--chaos must be > 0");
      } else if (arg == "--shm") {
        opt.shm_subs = std::stoul(next());
        if (opt.shm_subs == 0) throw ConfigError("--shm must be > 0");
      } else if (arg == "-n") {
        opt.blocks = std::stoul(next());
        if (opt.blocks == 0) throw ConfigError("-n must be > 0");
      } else if (arg == "-b") {
        opt.block_kib = std::stoul(next());
        if (opt.block_kib == 0) throw ConfigError("-b must be > 0");
      } else if (arg == "-s") {
        opt.seed = std::stoull(next());
      } else if (arg == "--json") {
        opt.json_path = next();
      } else if (arg == "--prom") {
        opt.prom_path = next();
      } else if (arg == "--spans") {
        opt.dump_spans = true;
      } else {
        return usage();
      }
    }
    if (opt.chaos_sessions > 0) return run_chaos_stat(opt);
    if (opt.shm_subs > 0) return run_shm_demo(opt);
    return opt.broker_subs > 0 ? run_broker_demo(opt) : run(opt);
  } catch (const acex::Error& e) {
    std::fprintf(stderr, "acexstat: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acexstat: internal error: %s\n", e.what());
    return 1;
  }
}
