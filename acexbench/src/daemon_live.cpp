// daemon_live: a live feed through a real acexd.
//
// An in-process net::Daemon serves four loopback DaemonClient subscribers
// whose offers differ in method and block size, so each published block
// is encoded in several groups. One publisher thread calls
// Daemon::publish on a fixed open-loop schedule of 16 KiB commercial
// blocks; one driver thread services every client with non-blocking
// polls. Latency runs from each block's due time, so a stall charges
// every block it delays. Exercises the event loop, sessions, egress and
// client decode; over loopback the selector mostly ships blocks
// uncompressed, so codecs do little.
//
// Threads: driver + publisher + daemon loop (broker encodes inline on
// the loop).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "net/client.hpp"
#include "net/daemon.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace acexbench {
namespace {

constexpr std::size_t kBlockSize = 16 * 1024;
constexpr std::size_t kDatasetBlocks = 256;

/// Offered load, blocks per second: about half the highest rate (~225/s)
/// at which seed sweeps kept every subscriber's backlog bounded on a
/// 4-vCPU x86 VM. Beyond ~250/s the single loop thread, which samples
/// every re-chunked piece of a block, falls behind for good.
constexpr double kRateBlocksPerS = 120;

/// Blocks at the head of the schedule that warm the system up; they are
/// verified but not measured.
constexpr std::size_t kWarmupBlocks = 60;

/// Length of one subscriber session (see run_pass).
constexpr double kSessionSeconds = 5.0;
constexpr std::size_t kExtraSetups = 11;

struct Offer {
  std::vector<MethodId> methods;
  std::uint32_t block_size;
};
const std::vector<Offer>& offers() {
  static const std::vector<Offer> o = {
      {{MethodId::kHuffman, MethodId::kNone}, 16 * 1024},
      {{MethodId::kLempelZiv, MethodId::kNone}, 8 * 1024},
      {{MethodId::kBurrowsWheeler, MethodId::kLempelZiv, MethodId::kHuffman, MethodId::kNone},
       16 * 1024},
      {{MethodId::kNone}, 4 * 1024},
  };
  return o;
}

/// One configured daemon_live system: construction is the set-up.
struct System {
  std::unique_ptr<acex::net::Daemon> daemon;
  std::vector<std::unique_ptr<acex::net::DaemonClient>> clients;
  std::vector<double> handshake_s;

  explicit System(CodecTallies* tallies) {
    acex::net::DaemonConfig config;
    config.tick_interval = 0.02;
    config.session.liveness_timeout = 30.0;  // no liveness churn mid-run
    config.session.suspect_grace = 30.0;
    daemon = std::make_unique<acex::net::Daemon>(config);
    acex::CodecRegistry& registry = daemon->manager().broker().registry();
    if (tallies) install_timed_codecs(registry, *tallies);
    warm_registry(registry);
    daemon->start();
    for (std::size_t i = 0; i < offers().size(); ++i) {
      acex::net::DaemonClientConfig cfg;
      cfg.offer.methods = offers()[i].methods;
      cfg.offer.block_size = offers()[i].block_size;
      cfg.offer.name = "live-" + std::to_string(i);
      const double t = now_s();
      clients.push_back(std::make_unique<acex::net::DaemonClient>(daemon->port(), cfg));
      handshake_s.push_back(now_s() - t);
    }
    const double deadline = now_s() + 10.0;
    while (daemon->streaming_count() < clients.size()) {
      if (now_s() > deadline) throw acex::IoError("daemon_live: subscribers never streamed");
      std::this_thread::yield();
    }
  }

  ~System() {
    for (auto& c : clients) c->bye();
    daemon->stop();
  }
  System(const System&) = delete;
  System& operator=(const System&) = delete;
};

struct Pass {
  EndToEnd e2e;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t blocks = 0;  ///< measured (post-warm-up) blocks published
  std::vector<double> lateness_s;
  std::vector<double> poll_s;
  std::vector<double> handshake_s;
  std::uint64_t backlog_end = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t wakeups = 0;
  acex::broker::BrokerStats broker;
  double mem_unique_max = 0;
};

/// One session: a fresh system fed `seconds` of scheduled blocks after
/// the warm-up, every block verified on every client, then torn down.
/// Adds its figures to `pass` and its set-up time to `setups`.
void run_session(const std::vector<Bytes>& blocks, double seconds, CodecTallies* tallies,
                 SelfTimer* timer, Pass& pass, std::vector<double>& setups) {
  const double t_setup = now_s();
  System sys(tallies);
  setups.push_back(now_s() - t_setup);
  pass.handshake_s.insert(pass.handshake_s.end(), sys.handshake_s.begin(),
                          sys.handshake_s.end());

  const std::size_t total =
      kWarmupBlocks + std::max<std::size_t>(1, static_cast<std::size_t>(seconds * kRateBlocksPerS));
  const std::size_t subs = sys.clients.size();
  OpenLoop schedule(now_s() + 0.01, 1.0 / kRateBlocksPerS);
  std::atomic<std::size_t> published{0};

  // Publisher: hands block i over at its due time, whatever happened to
  // the blocks before it.
  std::jthread publisher([&] {
    for (std::size_t i = 0; i < total; ++i) {
      sleep_until_s(schedule.due(i));
      schedule.issue(i, now_s());
      sys.daemon->publish(blocks[i % blocks.size()]);
      published.store(i + 1, std::memory_order_release);
    }
  });

  // Driver: non-blocking polls round-robin; verifies each block as soon as
  // a client's stream holds all of it.
  std::vector<std::size_t> have(subs, 0);  // verified blocks per client
  double delivered = 0;                    // measured bytes, all clients
  const double t_start = schedule.due(kWarmupBlocks);
  const double t_due_end = schedule.due(total);
  const double deadline = t_due_end + 10.0;
  bool measuring = false;
  bool backlog_taken = false;
  Usage u0;
  acex::net::DaemonStats s0;
  std::size_t rounds = 0;
  const auto all_have = [&](std::size_t n) {
    return std::all_of(have.begin(), have.end(), [n](std::size_t h) { return h >= n; });
  };
  for (;;) {
    const double now = now_s();
    if (!measuring && now >= t_start) {
      measuring = true;
      if (timer) timer->attach();
      u0 = usage_now();
      s0 = sys.daemon->stats();
    }
    if (all_have(total) || now > deadline) break;
    if (!backlog_taken && now >= t_due_end) {
      // Blocks due by the end of the schedule but not yet held everywhere.
      const std::size_t done = *std::min_element(have.begin(), have.end());
      pass.backlog_end += published.load(std::memory_order_acquire) - done;
      backlog_taken = true;
    }
    bool progress = false;
    for (std::size_t c = 0; c < subs; ++c) {
      acex::net::DaemonClient& client = *sys.clients[c];
      std::size_t got = 0;
      {
        const Span span(Layer::kNetClientPoll);
        const double p0 = now_s();
        got = client.poll(0);
        if (got > 0 && measuring) pass.poll_s.push_back(now_s() - p0);
      }
      if (got == 0) continue;
      progress = true;
      const Span span(Layer::kBenchVerify);
      const Bytes& stream = client.stream();
      const double held = now_s();
      while ((have[c] + 1) * kBlockSize <= stream.size()) {
        const std::size_t k = have[c];
        const Bytes& expect = blocks[k % blocks.size()];
        if (std::memcmp(stream.data() + k * kBlockSize, expect.data(), kBlockSize) != 0) {
          ++pass.failed;
        } else if (k >= kWarmupBlocks) {
          pass.e2e.latency_s.push_back(held - schedule.due(k));
          delivered += static_cast<double>(kBlockSize);
        }
        ++have[c];
      }
    }
    if (measuring && ++rounds % 256 == 0) {
      pass.mem_unique_max =
          std::max(pass.mem_unique_max,
                   static_cast<double>(sys.daemon->manager().broker().memory_usage_unique()));
    }
    if (!progress) {
      const Span span(Layer::kBenchWait);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  const double t_end = now_s();
  const Usage u1 = usage_now();
  if (timer) timer->detach();
  publisher.join();

  for (std::size_t c = 0; c < subs; ++c) {
    pass.attempted += total;
    if (have[c] < total) pass.failed += total - have[c];  // never arrived intact
  }
  pass.blocks += total - kWarmupBlocks;
  Window w;
  w.wall_s = t_end - t_start;
  w.cpu_s = u1.cpu_s - u0.cpu_s;
  w.delivered_bytes = delivered;
  w.published_bytes = static_cast<double>((total - kWarmupBlocks) * kBlockSize);
  pass.e2e.windows.push_back(w);
  const std::vector<double>& late = schedule.lateness();
  pass.lateness_s.insert(pass.lateness_s.end(), late.begin() + kWarmupBlocks, late.end());
  const acex::net::DaemonStats s1 = sys.daemon->stats();
  pass.bytes_out += s1.bytes_out - s0.bytes_out;
  pass.wakeups += s1.loop_wakeups - s0.loop_wakeups;
  pass.e2e.wire_bytes += static_cast<double>(s1.bytes_out - s0.bytes_out);
  for (auto& c : sys.clients) c->bye();
  sys.daemon->stop();
  const acex::broker::BrokerStats b = sys.daemon->manager().broker().stats();
  pass.broker.blocks += b.blocks;
  pass.broker.encodes += b.encodes;
  pass.broker.cache_hits += b.cache_hits;
  pass.broker.cache_misses += b.cache_misses;
  pass.broker.encode_seconds += b.encode_seconds;
}

/// Equal sessions of at most kSessionSeconds covering `seconds`. A
/// DaemonClient keeps its whole decoded stream, so a session's length sets
/// its memory and the size of the stream buffer's regrowth stalls (which
/// show in the latency tail); equal sessions keep both the same in every
/// run.
Pass run_pass(const std::vector<Bytes>& blocks, double seconds, CodecTallies* tallies,
              SelfTimer* timer) {
  Pass pass;
  // Set-up takes about a millisecond, so a few extra set-ups (torn down
  // unused) steady its median at no real cost.
  std::vector<double> setups;
  for (std::size_t i = 0; i < kExtraSetups; ++i) {
    const double t = now_s();
    const System sys(tallies);
    setups.push_back(now_s() - t);
  }
  const auto sessions = static_cast<std::size_t>(std::ceil(seconds / kSessionSeconds));
  for (std::size_t i = 0; i < sessions; ++i) {
    run_session(blocks, seconds / static_cast<double>(sessions), tallies, timer, pass, setups);
  }
  pass.e2e.setup_s = median(setups);
  return pass;
}

double goodput(const Pass& p) {
  return p.e2e.delivered_bytes() / (1024.0 * 1024.0) / p.e2e.wall_s();
}

}  // namespace

Outcome run_daemon_live(const Options& opts) {
  const std::vector<Bytes> blocks = commercial_blocks(opts.seed, kDatasetBlocks, kBlockSize);
  Outcome out;
  out.input_checksum = input_checksum(blocks);

  if (!opts.trace) {
    const Pass p = run_pass(blocks, opts.seconds, nullptr, nullptr);
    out.attempted = p.attempted;
    out.failed = p.failed;
    add_end_to_end(out, p.e2e);
    return out;
  }

  const Pass ref = run_pass(blocks, opts.seconds / 2, nullptr, nullptr);
  CodecTallies tallies;
  SelfTimer timer;
  const Pass traced = run_pass(blocks, opts.seconds / 2, &tallies, &timer);
  out.attempted = ref.attempted + traced.attempted;
  out.failed = ref.failed + traced.failed;

  const double closure = timer.print_budget("daemon_live driver thread (traced pass)");
  std::printf("  concurrent: daemon loop encode %.1f%% of wall\n",
              100.0 * tallies.encode_seconds_total() / timer.wall_s());
  std::printf("  goodput untraced %.3f MiB/s, traced %.3f MiB/s\n", goodput(ref),
              goodput(traced));

  const double nblocks = static_cast<double>(traced.broker.blocks);
  for (const MethodId m : ladder_methods()) {
    out.add("compress.encode_MBps." + std::string(acex::method_name(m)),
            tallies.encode(m).mbps(), "MB/s");
  }
  std::vector<ByteView> views(blocks.begin(), blocks.begin() + 64);
  add_layer_probes(out, views, [](std::uint64_t) { return 1e9; });
  out.add("broker.encodes_per_block", static_cast<double>(traced.broker.encodes) / nblocks,
          "count");
  out.add("broker.cache_hit_pct",
          100.0 * static_cast<double>(traced.broker.cache_hits) /
              static_cast<double>(traced.broker.cache_hits + traced.broker.cache_misses),
          "%");
  out.add("broker.encode_cpu_ms_per_block", 1e3 * traced.broker.encode_seconds / nblocks, "ms");
  out.add("broker.mem_unique_KiB_per_sub",
          traced.mem_unique_max / 1024.0 / static_cast<double>(offers().size()), "KiB");
  out.add("net.client_poll_us.p50", 1e6 * percentile(traced.poll_s, 50), "us");
  out.add("net.client_poll_us.p99", 1e6 * percentile(traced.poll_s, 99), "us");
  out.add("net.wakeups_per_block",
          static_cast<double>(traced.wakeups) / static_cast<double>(traced.blocks), "count");
  out.add("net.bytes_out_per_block",
          static_cast<double>(traced.bytes_out) / static_cast<double>(traced.blocks), "B");
  out.add("net.handshake_ms", 1e3 * median(traced.handshake_s), "ms");
  out.add("bench.gen_lag_p99_ms", 1e3 * percentile(traced.lateness_s, 99), "ms");
  out.add("bench.backlog_end_blocks", static_cast<double>(traced.backlog_end), "count");
  out.add("bench.budget_closure_pct", closure, "%");
  out.add("bench.trace_overhead_pct", 100.0 * (goodput(ref) - goodput(traced)) / goodput(ref),
          "%");
  return out;
}

}  // namespace acexbench
