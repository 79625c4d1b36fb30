#include "qa/soak.hpp"

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "adaptive/pipeline.hpp"
#include "broker/broker.hpp"
#include "echo/bridge.hpp"
#include "echo/channel.hpp"
#include "netsim/link.hpp"
#include "obs/metrics.hpp"
#include "qa/generators.hpp"
#include "transport/fault_transport.hpp"
#include "transport/sim_transport.hpp"
#include "util/clock.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace acex::qa {
namespace {

constexpr std::size_t kMaxViolations = 64;

netsim::LinkParams flat_link(double bps) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bps;
  p.jitter_frac = 0;
  p.latency_s = 0;
  return p;
}

/// The obs mirror of FaultCounters, read from the global registry.
struct ObsFault {
  std::uint64_t messages, drops, reorders, duplicates, bit_flips,
      truncations, clean;

  static ObsFault read() {
    auto& r = obs::MetricsRegistry::global();
    return {r.counter("acex.transport.fault.messages").value(),
            r.counter("acex.transport.fault.drops").value(),
            r.counter("acex.transport.fault.reorders").value(),
            r.counter("acex.transport.fault.duplicates").value(),
            r.counter("acex.transport.fault.bit_flips").value(),
            r.counter("acex.transport.fault.truncations").value(),
            r.counter("acex.transport.fault.clean").value()};
  }
};

/// Broker half of the soak: one FanoutBroker fanning every published block
/// out to N subscribers, each over its own faulted SimDuplex with a kNack
/// receiver. Subscribers churn mid-stream; ground truth is the global
/// `crcs` vector, and a subscriber that joined at global index J maps its
/// local sequence s to block J + s (broker sequences start at 0 at
/// subscribe time).
struct BrokerSoak {
  struct Sub {
    std::unique_ptr<netsim::SimLink> forward;
    std::unique_ptr<netsim::SimLink> reverse;
    std::unique_ptr<transport::SimDuplex> duplex;
    std::unique_ptr<transport::FaultInjectingTransport> lossy;
    std::unique_ptr<adaptive::AdaptiveReceiver> rx;
    broker::SubscriberId id = 0;
    std::size_t joined_at = 0;  ///< crcs.size() at subscribe time
    std::map<std::uint64_t, std::uint32_t> recovered;  ///< local seq -> crc
  };

  const SoakConfig& config;
  std::function<void(std::string)> violate;

  VirtualClock clock;  ///< shared by every subscriber link
  broker::FanoutBroker broker;
  std::vector<std::unique_ptr<Sub>> subs;
  std::vector<std::uint32_t> crcs;     ///< ground truth per published block
  std::uint64_t planned_frames = 0;    ///< Σ live subscribers per publish
  std::uint64_t retransmits = 0;
  std::uint64_t settled_recovered = 0;  ///< from churned-out subscribers
  std::uint64_t settled_abandoned = 0;
  transport::FaultCounters faults;  ///< accumulated over ALL injectors
  std::uint64_t next_endpoint = 0;
  Rng rng;

  BrokerSoak(const SoakConfig& cfg, std::function<void(std::string)> v)
      : config(cfg),
        violate(std::move(v)),
        broker(broker_config(cfg)),
        rng(cfg.seed + 71) {
    for (std::size_t i = 0; i < cfg.broker_subscribers; ++i) {
      add_subscriber();
    }
  }

  static broker::BrokerConfig broker_config(const SoakConfig& cfg) {
    broker::BrokerConfig bc;
    bc.worker_threads = cfg.workers == 0 ? 1 : cfg.workers;
    return bc;
  }

  void add_subscriber() {
    auto sub = std::make_unique<Sub>();
    const std::uint64_t n = ++next_endpoint;
    sub->forward = std::make_unique<netsim::SimLink>(flat_link(2e7),
                                                     config.seed * 131 + n * 2);
    sub->reverse = std::make_unique<netsim::SimLink>(
        flat_link(2e8), config.seed * 131 + n * 2 + 1);
    sub->duplex = std::make_unique<transport::SimDuplex>(*sub->forward,
                                                         *sub->reverse, clock);
    transport::FaultConfig fc;
    fc.drop_prob = config.drop_prob;
    fc.reorder_prob = config.reorder_prob;
    fc.duplicate_prob = config.duplicate_prob;
    fc.bit_flip_prob = config.bit_flip_prob;
    fc.truncate_prob = config.truncate_prob;
    fc.seed =
        config.seed ^ (0x165667B19E3779F9ull + n * 0x27D4EB2F165667C5ull);
    sub->lossy = std::make_unique<transport::FaultInjectingTransport>(
        sub->duplex->a(), fc);

    adaptive::ReceiverConfig rc;
    rc.policy = adaptive::RecoveryPolicy::kNack;
    rc.nack_retry_cap = config.nack_retry_cap;
    rc.gap_window = config.gap_window;
    sub->rx =
        std::make_unique<adaptive::AdaptiveReceiver>(sub->duplex->b(), rc);

    broker::SubscriberConfig sc;
    sc.name = "qa-sub-" + std::to_string(n);
    sc.adaptive.decision.block_size = config.block_size;
    sc.adaptive.decision.sample_size =
        std::min<std::size_t>(1024, config.block_size);
    sc.adaptive.retransmit_capacity = config.blocks_per_round * 6 + 64;
    sc.adaptive.retransmit_max_retries = config.nack_retry_cap;
    sc.egress_capacity = config.blocks_per_round * 6 + 64;
    // kDropOldest: the soak pumps on the publishing thread, so kBlock
    // would self-deadlock on overflow; evictions are NACK-recoverable.
    sc.policy = broker::SlowConsumerPolicy::kDropOldest;
    sub->joined_at = crcs.size();
    sub->id = broker.subscribe(*sub->lossy, sc);
    subs.push_back(std::move(sub));
  }

  void publish(ByteView block) {
    std::size_t live = 0;
    for (const auto& sub : subs) {
      if (!broker.disconnected(sub->id)) ++live;
    }
    planned_frames += live;
    crcs.push_back(crc32(block));
    broker.publish(block);
  }

  void drain(Sub& sub) {
    const adaptive::ReceiveReport r = sub.rx->receive_report();
    if (r.gaps.size() > config.gap_window) {
      violate("broker: " + std::to_string(r.gaps.size()) +
              " gaps exceed the gap window of " +
              std::to_string(config.gap_window));
    }
    for (const auto& frame : r.frames) {
      if (frame.status != adaptive::FrameOutcome::Status::kOk) continue;
      if (!frame.has_sequence) {
        violate("broker: intact frame delivered without a sequence");
        continue;
      }
      const std::uint64_t global = sub.joined_at + frame.sequence;
      if (global >= crcs.size()) {
        violate("broker: delivered sequence " +
                std::to_string(frame.sequence) +
                " maps past the published stream");
        continue;
      }
      const std::uint32_t got = crc32(frame.data);
      if (!sub.recovered.emplace(frame.sequence, got).second) {
        violate("broker: frame " + std::to_string(frame.sequence) +
                " delivered twice to one subscriber");
      } else if (got != crcs[static_cast<std::size_t>(global)]) {
        violate("broker: frame " + std::to_string(frame.sequence) +
                " payload diverged from block " + std::to_string(global));
      }
    }
  }

  void pump_and_drain(Sub& sub) {
    broker.pump(sub.id);
    sub.lossy->flush();
    drain(sub);
  }

  bool nack_cycle(Sub& sub, int extra_passes) {
    for (int pass = 0; pass < config.nack_retry_cap + extra_passes; ++pass) {
      const std::vector<std::uint64_t> nacks = sub.rx->take_nacks();
      if (nacks.empty()) return true;
      retransmits += broker.retransmit(sub.id, nacks);
      pump_and_drain(sub);
    }
    return sub.rx->take_nacks().empty();
  }

  void round(std::size_t round_index) {
    const std::size_t round_bytes =
        config.blocks_per_round * config.block_size;
    auto regimes = seed_payloads(round_bytes, config.seed + 53 * round_index);
    const Bytes& data = regimes[round_index % regimes.size()].data;
    for (std::size_t at = 0; at < data.size(); at += config.block_size) {
      const std::size_t len = std::min(config.block_size, data.size() - at);
      publish(ByteView(data.data() + at, len));
    }
    for (auto& sub : subs) {
      pump_and_drain(*sub);
      nack_cycle(*sub, 2);
      if (broker.disconnected(sub->id)) {
        violate("broker: subscriber " + std::to_string(sub->id) +
                " disconnected unexpectedly");
      }
    }
  }

  /// Fault-counter identity for one injector, folded into the running sum
  /// (the obs mirror check in run_soak needs the broker's share too).
  void accumulate_faults(const Sub& sub) {
    const transport::FaultCounters& c = sub.lossy->counters();
    if (c.messages != c.drops + c.reorders + c.duplicates + c.bit_flips +
                          c.truncations + c.clean) {
      violate("broker: fault counter identity broken");
    }
    faults.messages += c.messages;
    faults.drops += c.drops;
    faults.reorders += c.reorders;
    faults.duplicates += c.duplicates;
    faults.bit_flips += c.bit_flips;
    faults.truncations += c.truncations;
    faults.clean += c.clean;
  }

  /// Settle the oldest subscriber's accounting and replace it with a fresh
  /// endpoint: the churn the broker promises to survive mid-stream.
  void maybe_churn(std::size_t completed_rounds) {
    if (config.broker_churn_every == 0 || subs.empty()) return;
    if (completed_rounds % config.broker_churn_every != 0) return;
    Sub& leaving = *subs.front();
    nack_cycle(leaving, 2);
    const std::uint64_t published_while = crcs.size() - leaving.joined_at;
    if (leaving.recovered.size() > published_while) {
      violate("broker: subscriber recovered more frames than were published "
              "while it was subscribed");
      settled_recovered += published_while;
    } else {
      settled_recovered += leaving.recovered.size();
      settled_abandoned += published_while - leaving.recovered.size();
    }
    accumulate_faults(leaving);
    broker.unsubscribe(leaving.id);
    subs.erase(subs.begin());
    add_subscriber();
  }

  /// Heal every link, push a sentinel block past any tail drops, replay to
  /// a fixed point, then check the accounting and shared-encode identities.
  void finish(SoakReport& report) {
    transport::FaultConfig clean;
    for (auto& sub : subs) sub->lossy->set_config(clean);
    if (!subs.empty()) {
      const Bytes sentinel = rng.bytes(config.block_size);
      publish(sentinel);
      for (auto& sub : subs) {
        pump_and_drain(*sub);
        if (!nack_cycle(*sub, 4)) {
          violate("broker: NACK traffic did not converge on a healed link");
        }
      }
    }

    std::uint64_t live_recovered = 0;
    std::uint64_t live_abandoned = 0;
    for (auto& sub : subs) {
      const std::uint64_t published_while = crcs.size() - sub->joined_at;
      const std::size_t lost = sub->rx->receive_report().gaps.size() +
                               sub->rx->nacks_abandoned();
      if (sub->recovered.size() + lost != published_while) {
        violate("broker: accounting leak: " +
                std::to_string(sub->recovered.size()) + " recovered + " +
                std::to_string(lost) + " gaps or abandoned != " +
                std::to_string(published_while) +
                " published while subscribed");
      }
      live_recovered += sub->recovered.size();
      live_abandoned += lost;
      accumulate_faults(*sub);
    }

    report.broker_blocks = crcs.size();
    report.broker_recovered = settled_recovered + live_recovered;
    report.broker_abandoned = settled_abandoned + live_abandoned;
    report.broker_retransmits = retransmits;
    const broker::BrokerStats bs = broker.stats();
    report.broker_encodes = bs.encodes;
    report.broker_cache_hits = bs.cache_hits;
    if (bs.blocks != crcs.size()) {
      violate("broker: publish count diverges from ground truth");
    }
    if (bs.cache_misses != bs.encodes) {
      violate("broker: encode-cache misses diverge from actual codec runs");
    }
    if (bs.cache_hits + bs.cache_misses != planned_frames) {
      violate("broker: cache hits + misses != frames planned "
              "(shared-encode accounting leak)");
    }
  }
};

}  // namespace

SoakReport run_soak(const SoakConfig& config) {
  if (config.block_size == 0) {
    throw ConfigError("soak: block_size must be positive");
  }
  if (config.events_per_round == 0 && config.blocks_per_round == 0) {
    throw ConfigError("soak: nothing to soak (no events, no blocks)");
  }
  if (config.seconds <= 0 && config.rounds == 0) {
    throw ConfigError("soak: either seconds or rounds must be positive");
  }

  SoakReport report;
  auto violate = [&report](std::string why) {
    if (report.violations.size() < kMaxViolations) {
      report.violations.push_back(std::move(why));
    }
  };

  const ObsFault obs_before = ObsFault::read();

  // ---- pub/sub half: ECho channels bridged over a faulted link ---------
  VirtualClock pub_clock;
  netsim::SimLink pub_fwd(flat_link(2e7), config.seed * 4 + 1);
  netsim::SimLink pub_rev(flat_link(2e8), config.seed * 4 + 2);
  transport::SimDuplex pub_duplex(pub_fwd, pub_rev, pub_clock);
  transport::FaultConfig pub_faults;
  pub_faults.drop_prob = config.drop_prob;
  pub_faults.reorder_prob = config.reorder_prob;
  pub_faults.duplicate_prob = config.duplicate_prob;
  pub_faults.bit_flip_prob = config.bit_flip_prob;
  pub_faults.truncate_prob = config.truncate_prob;
  pub_faults.seed = config.seed ^ 0x9E3779B97F4A7C15ull;
  transport::FaultInjectingTransport pub_lossy(pub_duplex.a(), pub_faults);

  echo::EventChannel producer("qa.soak.producer");
  echo::EventChannel consumer("qa.soak.consumer");
  const std::size_t ring_capacity = config.events_per_round * 4 + 64;
  echo::ChannelSender bridge_tx(producer, pub_lossy, ring_capacity,
                                config.nack_retry_cap);
  echo::ChannelReceiver bridge_rx(consumer, pub_duplex.b(),
                                  config.nack_retry_cap, config.gap_window);

  // Published ground truth, indexed by the app-level sequence (== the
  // bridge sequence: this producer channel carries soak events only).
  std::vector<std::uint32_t> published_crc;
  std::map<std::uint64_t, std::size_t> delivered;  // seq -> delivery count
  consumer.subscribe([&](const echo::Event& event) {
    const auto seq = event.attributes.get_int("qa.seq");
    if (!seq || *seq < 0 ||
        static_cast<std::size_t>(*seq) >= published_crc.size()) {
      violate("pubsub: delivered event carries an unknown qa.seq attribute");
      return;
    }
    const auto count = ++delivered[static_cast<std::uint64_t>(*seq)];
    if (count > 1) {
      violate("pubsub: event " + std::to_string(*seq) + " delivered " +
              std::to_string(count) + " times");
    } else if (crc32(event.payload) !=
               published_crc[static_cast<std::size_t>(*seq)]) {
      violate("pubsub: event " + std::to_string(*seq) +
              " payload diverged from what was published");
    }
  });

  // ---- engine half: parallel sender + NACK receiver over a faulted link
  VirtualClock eng_clock;
  netsim::SimLink eng_fwd(flat_link(5e7), config.seed * 4 + 3);
  netsim::SimLink eng_rev(flat_link(5e8), config.seed * 4 + 4);
  transport::SimDuplex eng_duplex(eng_fwd, eng_rev, eng_clock);
  transport::FaultConfig eng_faults = pub_faults;
  eng_faults.seed = config.seed ^ 0xC2B2AE3D27D4EB4Full;
  transport::FaultInjectingTransport eng_lossy(eng_duplex.a(), eng_faults);

  adaptive::AdaptiveConfig eng_config;
  eng_config.async_sampling = false;
  eng_config.decision.block_size = config.block_size;
  eng_config.decision.sample_size =
      std::min<std::size_t>(1024, config.block_size);
  eng_config.worker_threads = config.workers;
  eng_config.retransmit_capacity = config.blocks_per_round * 6 + 64;
  eng_config.retransmit_max_retries = config.nack_retry_cap;
  adaptive::AdaptiveSender eng_tx(eng_lossy, eng_config);

  adaptive::ReceiverConfig rx_config;
  rx_config.policy = adaptive::RecoveryPolicy::kNack;
  rx_config.nack_retry_cap = config.nack_retry_cap;
  rx_config.gap_window = config.gap_window;
  adaptive::AdaptiveReceiver eng_rx(eng_duplex.b(), rx_config);

  std::vector<std::uint32_t> block_crc;  // ground truth, indexed by sequence
  std::map<std::uint64_t, std::uint32_t> recovered;
  auto absorb = [&](const adaptive::ReceiveReport& drain) {
    if (drain.frames_ok + drain.frames_corrupt + drain.frames_duplicate !=
        drain.frames.size()) {
      violate("engine: drain outcome counts do not sum to the frame count");
    }
    if (drain.gaps.size() > config.gap_window) {
      violate("engine: " + std::to_string(drain.gaps.size()) +
              " gaps exceed the gap window of " +
              std::to_string(config.gap_window));
    }
    for (const auto& frame : drain.frames) {
      if (frame.status != adaptive::FrameOutcome::Status::kOk) continue;
      if (!frame.has_sequence) {
        violate("engine: intact frame delivered without a sequence");
        continue;
      }
      if (frame.sequence >= block_crc.size()) {
        violate("engine: delivered sequence " +
                std::to_string(frame.sequence) + " was never sent");
        continue;
      }
      const std::uint32_t got = crc32(frame.data);
      if (!recovered.emplace(frame.sequence, got).second) {
        violate("engine: block " + std::to_string(frame.sequence) +
                " delivered twice");
      } else if (got != block_crc[frame.sequence]) {
        violate("engine: block " + std::to_string(frame.sequence) +
                " payload diverged from what was sent");
      }
    }
  };

  auto pubsub_nack_cycle = [&](int extra_passes) {
    for (int pass = 0; pass < config.nack_retry_cap + extra_passes; ++pass) {
      if (bridge_rx.signal_nacks() == 0) return true;
      bridge_tx.pump_control();
      pub_lossy.flush();
      bridge_rx.poll();
    }
    return bridge_rx.signal_nacks() == 0;
  };
  auto engine_nack_cycle = [&](int extra_passes) {
    for (int pass = 0; pass < config.nack_retry_cap + extra_passes; ++pass) {
      const std::vector<std::uint64_t> nacks = eng_rx.take_nacks();
      if (nacks.empty()) return true;
      report.block_retransmits += eng_tx.retransmit(nacks);
      eng_lossy.flush();
      absorb(eng_rx.receive_report());
    }
    return eng_rx.take_nacks().empty();
  };

  // ---- broker half (optional): fan-out with per-subscriber recovery ----
  std::unique_ptr<BrokerSoak> brk;
  if (config.broker_subscribers > 0) {
    brk = std::make_unique<BrokerSoak>(config, violate);
  }

  Rng event_rng(config.seed + 17);

  // ---- the soak loop ---------------------------------------------------
  const auto started = std::chrono::steady_clock::now();
  auto budget_left = [&] {
    if (report.violations.size() >= kMaxViolations) return false;
    if (config.seconds <= 0) return report.rounds < config.rounds;
    if (report.rounds == 0) return true;  // always run at least one round
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    return elapsed < config.seconds;
  };

  while (budget_left()) {
    // Pub/sub round: publish, drain, NACK-replay while still faulty.
    for (std::size_t i = 0; i < config.events_per_round; ++i) {
      Bytes payload = event_rng.bytes(64 + event_rng.below(961));
      echo::Event event(std::move(payload));
      event.attributes.set_int(
          "qa.seq", static_cast<std::int64_t>(published_crc.size()));
      published_crc.push_back(crc32(event.payload));
      producer.submit(std::move(event));
    }
    pub_lossy.flush();
    bridge_rx.poll();
    pubsub_nack_cycle(2);

    if (const auto missing = bridge_rx.missing();
        missing.size() > config.gap_window) {
      violate("pubsub: " + std::to_string(missing.size()) +
              " missing sequences exceed the gap window");
    } else {
      for (const std::uint64_t seq : missing) {
        if (seq >= published_crc.size()) {
          violate("pubsub: missing sequence " + std::to_string(seq) +
                  " was never published");
          break;
        }
      }
    }

    // Engine round: stream one workload regime, drain, NACK-replay.
    if (config.blocks_per_round > 0) {
      const std::size_t round_bytes =
          config.blocks_per_round * config.block_size;
      auto regimes =
          seed_payloads(round_bytes, config.seed + 31 * report.rounds);
      const Bytes& data = regimes[report.rounds % regimes.size()].data;
      std::size_t chunks = 0;
      for (std::size_t at = 0; at < data.size(); at += config.block_size) {
        const std::size_t len =
            std::min(config.block_size, data.size() - at);
        block_crc.push_back(crc32(ByteView(data.data() + at, len)));
        ++chunks;
      }
      const adaptive::StreamReport sent = eng_tx.send_all(data);
      if (sent.blocks.size() != chunks) {
        violate("engine: sender split " + std::to_string(sent.blocks.size()) +
                " blocks where " + std::to_string(chunks) + " were expected");
      }
      eng_lossy.flush();
      absorb(eng_rx.receive_report());
      engine_nack_cycle(2);
    }

    // Broker round: publish the fan-out stream, recover per subscriber,
    // then churn the subscriber set on its cadence.
    if (brk) {
      brk->round(report.rounds);
      brk->maybe_churn(report.rounds + 1);
    }

    ++report.rounds;
  }

  // ---- convergence: heal both links, flush the tails, replay to a fixed
  // point where every sequence is recovered or explicitly abandoned ------
  transport::FaultConfig clean;
  pub_lossy.set_config(clean);
  eng_lossy.set_config(clean);

  {  // Sentinel event: tail drops only become visible gaps once a later
     // sequence arrives, so push one clean event past them.
    Bytes payload = event_rng.bytes(64);
    echo::Event event(std::move(payload));
    event.attributes.set_int("qa.seq",
                             static_cast<std::int64_t>(published_crc.size()));
    published_crc.push_back(crc32(event.payload));
    producer.submit(std::move(event));
    pub_lossy.flush();
    bridge_rx.poll();
    if (!pubsub_nack_cycle(4)) {
      violate("pubsub: NACK traffic did not converge on a healed link");
    }
  }
  if (block_crc.size() > 0) {  // Sentinel block, same reason.
    const Bytes sentinel = event_rng.bytes(config.block_size);
    block_crc.push_back(crc32(sentinel));
    eng_tx.send_all(sentinel);
    eng_lossy.flush();
    absorb(eng_rx.receive_report());
    if (!engine_nack_cycle(4)) {
      violate("engine: retransmit ring did not converge on a healed link");
    }
  }
  if (brk) brk->finish(report);

  // ---- final accounting ------------------------------------------------
  report.events_published = published_crc.size();
  report.events_delivered = delivered.size();
  // Unrecovered = explicitly abandoned (retry cap) + still-visible gaps
  // after convergence (there should be none of the latter on a healed
  // link; the accounting identity below catches any leak either way).
  report.events_unrecovered =
      bridge_rx.events_abandoned() + bridge_rx.missing().size();
  report.event_retransmits = bridge_tx.events_retransmitted();
  if (report.events_delivered + report.events_unrecovered !=
      report.events_published) {
    violate("pubsub: accounting leak: " +
            std::to_string(report.events_delivered) + " delivered + " +
            std::to_string(report.events_unrecovered) + " abandoned != " +
            std::to_string(report.events_published) + " published");
  }

  report.blocks_sent = block_crc.size();
  report.blocks_recovered = recovered.size();
  const adaptive::ReceiveReport final_drain = eng_rx.receive_report();
  report.blocks_abandoned =
      eng_rx.nacks_abandoned() + final_drain.gaps.size();
  if (report.blocks_recovered + report.blocks_abandoned !=
      report.blocks_sent) {
    violate("engine: accounting leak: " +
            std::to_string(report.blocks_recovered) + " recovered + " +
            std::to_string(report.blocks_abandoned) + " abandoned != " +
            std::to_string(report.blocks_sent) + " sent");
  }
  // Every abandoned block spent its NACK budget: none is still a gap, and
  // none was settled by distance before a NACK round gave it up.
  if (!final_drain.gaps.empty() || eng_rx.window().outrun() != 0) {
    violate("engine: " + std::to_string(final_drain.gaps.size()) +
            " gaps survive and " + std::to_string(eng_rx.window().outrun()) +
            " were settled before exhausting their retry cap");
  }

  // Fault-counter identity on both injectors, and the obs mirror.
  const auto check_identity = [&](const char* tag,
                                  const transport::FaultCounters& c) {
    if (c.messages != c.drops + c.reorders + c.duplicates + c.bit_flips +
                          c.truncations + c.clean) {
      violate(std::string(tag) + ": fault counter identity broken");
    }
    report.faults_injected +=
        c.drops + c.reorders + c.duplicates + c.bit_flips + c.truncations;
  };
  const transport::FaultCounters& pc = pub_lossy.counters();
  const transport::FaultCounters& ec = eng_lossy.counters();
  check_identity("pubsub", pc);
  check_identity("engine", ec);
  // The broker half checked each injector's identity as it settled; its
  // running sum joins the obs-mirror ground truth below.
  const transport::FaultCounters bc =
      brk ? brk->faults : transport::FaultCounters{};
  report.faults_injected +=
      bc.drops + bc.reorders + bc.duplicates + bc.bit_flips + bc.truncations;

  const ObsFault after = ObsFault::read();
  const auto obs_mirror = [&](const char* field, std::uint64_t before_v,
                              std::uint64_t after_v, std::uint64_t truth) {
    if (after_v - before_v != truth) {
      violate(std::string("obs: fault.") + field + " delta " +
              std::to_string(after_v - before_v) +
              " != injector ground truth " + std::to_string(truth));
    }
  };
  obs_mirror("messages", obs_before.messages, after.messages,
             pc.messages + ec.messages + bc.messages);
  obs_mirror("drops", obs_before.drops, after.drops,
             pc.drops + ec.drops + bc.drops);
  obs_mirror("reorders", obs_before.reorders, after.reorders,
             pc.reorders + ec.reorders + bc.reorders);
  obs_mirror("duplicates", obs_before.duplicates, after.duplicates,
             pc.duplicates + ec.duplicates + bc.duplicates);
  obs_mirror("bit_flips", obs_before.bit_flips, after.bit_flips,
             pc.bit_flips + ec.bit_flips + bc.bit_flips);
  obs_mirror("truncations", obs_before.truncations, after.truncations,
             pc.truncations + ec.truncations + bc.truncations);
  obs_mirror("clean", obs_before.clean, after.clean,
             pc.clean + ec.clean + bc.clean);

  return report;
}

}  // namespace acex::qa
