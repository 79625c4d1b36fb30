// bulk_link: the paper's bulk transfer over a loaded link (§2.5, §5).
//
// One engine::ParallelSender in adaptive mode, nproc - 2 encode workers,
// feeds a paced link: the link's rate for a frame is picked from its
// sequence number, so every run sends the same blocks at the same rates.
// The tiers sit inside single branches of the §2.5 rule: "fast" ships
// blocks uncompressed, "mid" makes them Lempel-Ziv (Huffman for the
// molecular data, whose sample misses the ratio cut), "slow" makes them
// Burrows-Wheeler. The far end decodes on its own thread. Closed loop:
// the driver sends the next block as soon as the sender lets it.
//
// Threads: driver + workers + far end = nproc; sampling runs inline on
// the driver (async sampling would add a thread per block).

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "adaptive/pipeline.hpp"
#include "engine/parallel_sender.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"
#include "workloads.hpp"

namespace acexbench {
namespace {

constexpr std::size_t kBlockSize = 64 * 1024;

struct Tier {
  const char* name;
  double rate_Bps;
  std::size_t blocks;  ///< consecutive frame sequences on this tier
};
constexpr std::array<Tier, 3> kTiers = {{
    {"fast", 40e6, 16},
    {"mid", 4.5e6, 12},
    {"slow", 1.2e6, 12},
}};
constexpr std::size_t kCycleBlocks = 40;  ///< sum of the tiers' blocks

/// Inputs: commercial and molecular segments alternate every tier cycle,
/// so every tier sees both kinds of data equally often.
constexpr std::size_t kSegmentBlocks = kCycleBlocks;
constexpr std::size_t kDatasetBlocks = 2 * kCycleBlocks;

std::size_t tier_of(std::uint64_t sequence) noexcept {
  std::size_t pos = sequence % kCycleBlocks;
  for (std::size_t t = 0; t < kTiers.size(); ++t) {
    if (pos < kTiers[t].blocks) return t;
    pos -= kTiers[t].blocks;
  }
  return kTiers.size() - 1;
}

double rate_of(std::uint64_t sequence) noexcept {
  return kTiers[tier_of(sequence)].rate_Bps;
}

/// Sequence and method of a v2 frame, read from its header without a
/// copy. The frame layout is the wire format of compress/frame.hpp.
bool peek_frame(ByteView frame, std::uint64_t& sequence, MethodId& method) {
  if (frame.size() < 5 || frame[0] != 'A' || frame[1] != 'X' || frame[2] != 2) return false;
  method = static_cast<MethodId>(frame[3]);
  std::size_t pos = 4;
  sequence = acex::get_varint(frame, &pos);
  return true;
}

/// The far end's inbox: the paced link pushes frames, the receiver thread
/// drains them through an AdaptiveReceiver (receive() never blocks).
class Inbox final : public acex::transport::Transport {
 public:
  void send(ByteView) override { throw acex::IoError("inbox is receive-only"); }

  std::optional<Bytes> receive() override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (frames_.empty()) return std::nullopt;
    Bytes frame = std::move(frames_.front());
    frames_.pop_front();
    return frame;
  }
  const acex::Clock& clock() const override { return clock_; }

  void push(Bytes frame) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      frames_.push_back(std::move(frame));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  /// Block until a frame is queued (true) or the inbox is closed and
  /// drained (false).
  bool wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !frames_.empty(); });
    return !frames_.empty();
  }

 private:
  acex::MonotonicClock clock_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Bytes> frames_;
  bool closed_ = false;
};

struct LinkStats {
  std::array<std::array<std::uint64_t, 256>, kTiers.size()> tier_methods{};
  std::array<double, kTiers.size()> bytes{};
  std::array<double, kTiers.size()> seconds{};
  std::array<std::uint64_t, 256> method_blocks{};
  double wire_bytes = 0;
};

/// The bench's paced link: send() holds the caller for the frame's time
/// on the wire at its tier's rate, then hands the frame to the far end.
class PacedLink final : public acex::transport::Transport {
 public:
  explicit PacedLink(Inbox& far) : far_(&far) {}

  void send(ByteView message) override {
    const Span span(Layer::kTransportLink);
    std::uint64_t sequence = 0;
    MethodId method = MethodId::kNone;
    if (!peek_frame(message, sequence, method)) throw acex::IoError("not a v2 frame");
    const std::size_t tier = tier_of(sequence);
    const double now = now_s();
    const double done = pacer_.reserve(message.size(), kTiers[tier].rate_Bps, now);
    sleep_until_s(done);
    far_->push(Bytes(message.begin(), message.end()));
    stats_.bytes[tier] += static_cast<double>(message.size());
    // Link time since the previous frame left: its own transmission plus
    // any idle stretch the sender could not fill.
    stats_.seconds[tier] += last_done_ > 0 ? done - last_done_ : done - now;
    stats_.method_blocks[static_cast<int>(method)] += 1;
    stats_.tier_methods[tier][static_cast<int>(method)] += 1;
    stats_.wire_bytes += static_cast<double>(message.size());
    last_done_ = done;
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const acex::Clock& clock() const override { return clock_; }

  LinkStats take_stats() { return std::exchange(stats_, LinkStats{}); }

 private:
  Inbox* far_;
  acex::MonotonicClock clock_;
  Pacer pacer_;
  double last_done_ = 0;
  LinkStats stats_;
};

/// Decodes on its own thread and holds every frame against the published
/// block its sequence names.
class FarEnd {
 public:
  FarEnd(Inbox& inbox, const Bytes& dataset, CodecTallies* tallies)
      : inbox_(&inbox), dataset_(&dataset),
        receiver_(inbox, acex::adaptive::ReceiverConfig{
                             acex::adaptive::RecoveryPolicy::kSkip, 3, 1u << 30}) {
    if (tallies) install_timed_codecs(receiver_.registry(), *tallies);
    warm_registry(receiver_.registry());
    thread_ = std::thread([this] { loop(); });
  }
  ~FarEnd() { stop(); }
  FarEnd(const FarEnd&) = delete;
  FarEnd& operator=(const FarEnd&) = delete;

  void stop() {
    inbox_->close();
    if (thread_.joinable()) thread_.join();
  }

  /// Block until `count` frames have been judged (intact or not), or 30 s
  /// pass without that; frames still missing then count as failed.
  void wait_judged(std::uint64_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(30), [&] { return judged_ >= count; });
  }

  /// Delivery time of each sequence (negative = never delivered intact).
  std::vector<double> delivered_at() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return delivered_at_;
  }

 private:
  void loop() {
    while (inbox_->wait()) {
      const acex::adaptive::ReceiveReport report = receiver_.receive_report();
      const double now = now_s();
      std::lock_guard<std::mutex> lock(mutex_);
      for (const acex::adaptive::FrameOutcome& f : report.frames) {
        ++judged_;
        if (f.status != acex::adaptive::FrameOutcome::Status::kOk) continue;
        const std::size_t index = (f.sequence % kDatasetBlocks) * kBlockSize;
        const bool same = f.data.size() == kBlockSize &&
                          std::memcmp(f.data.data(), dataset_->data() + index, kBlockSize) == 0;
        if (!same) continue;
        if (delivered_at_.size() <= f.sequence) delivered_at_.resize(f.sequence + 1, -1);
        delivered_at_[f.sequence] = now;
      }
      cv_.notify_all();
    }
  }

  Inbox* inbox_;
  const Bytes* dataset_;
  acex::adaptive::AdaptiveReceiver receiver_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t judged_ = 0;
  std::vector<double> delivered_at_;
  std::thread thread_;  // last: joins before the members it reads go
};

/// One configured bulk_link system: construction is the set-up.
struct System {
  Inbox inbox;
  PacedLink link{inbox};
  std::unique_ptr<acex::engine::ParallelSender> sender;
  std::unique_ptr<FarEnd> far;

  System(const Bytes& dataset, std::size_t workers, CodecTallies* tallies) {
    acex::adaptive::AdaptiveConfig config;
    config.async_sampling = false;
    config.worker_threads = workers;
    config.decision.block_size = kBlockSize;
    config.initial_bandwidth_Bps = kTiers[0].rate_Bps;
    sender = std::make_unique<acex::engine::ParallelSender>(link, config);
    if (tallies) install_timed_codecs(sender->sender().registry(), *tallies);
    warm_registry(sender->sender().registry());
    far = std::make_unique<FarEnd>(inbox, dataset, tallies);
  }
};

struct Pass {
  double setup_s = 0;
  EndToEnd e2e;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  LinkStats link;
  std::vector<MethodId> methods;
  std::uint64_t fallbacks = 0;
  double encode_s = 0;
};

/// Set up (median of `setups` constructions), warm up with one pass over
/// the dataset, then send whole datasets for `seconds`.
Pass run_pass(const Bytes& dataset, std::size_t workers, double seconds,
              std::size_t setups, CodecTallies* tallies, SelfTimer* timer) {
  Pass pass;
  std::unique_ptr<System> sys;
  std::vector<double> setup_times;
  for (std::size_t i = 0; i < std::max<std::size_t>(setups, 1); ++i) {
    sys.reset();
    const double t = now_s();
    sys = std::make_unique<System>(dataset, workers, tallies);
    setup_times.push_back(now_s() - t);
  }
  pass.setup_s = median(setup_times);

  // The unit of work is the whole dataset: one commercial and one
  // molecular tier cycle, so every run measures the same mix.
  std::uint64_t sent = 0;
  const auto send_dataset = [&](std::vector<acex::adaptive::BlockReport>* reports) {
    acex::adaptive::StreamReport r = sys->sender->send_all(dataset);
    sent += r.blocks.size();
    if (reports) reports->insert(reports->end(), r.blocks.begin(), r.blocks.end());
  };
  send_dataset(nullptr);  // warm-up: estimators and caches settle
  sys->far->wait_judged(sent);
  (void)sys->link.take_stats();
  const std::uint64_t fallbacks0 = sys->sender->sender().degradation().fallbacks;
  const double encode0 = tallies ? tallies->encode_seconds_total() : 0;

  // Every pass over the dataset is one window of the end-to-end figures.
  struct Stretch {
    double wall_s, cpu_s;
    std::size_t first_report, end_report;
  };
  std::vector<Stretch> stretches;
  std::vector<acex::adaptive::BlockReport> reports;
  if (timer) timer->attach();
  const double t0 = now_s();
  for (bool done = false; !done;) {
    const double start = now_s();
    const double cpu0 = usage_now().cpu_s;
    const std::size_t first = reports.size();
    {
      const Span span(Layer::kEngineSendAll);
      send_dataset(&reports);
    }
    done = now_s() - t0 >= seconds;
    if (done) {
      const Span span(Layer::kBenchWait);
      sys->far->wait_judged(sent);
    }
    stretches.push_back({now_s() - start, usage_now().cpu_s - cpu0, first, reports.size()});
  }
  if (timer) timer->detach();
  pass.link = sys->link.take_stats();
  pass.fallbacks = sys->sender->sender().degradation().fallbacks - fallbacks0;
  pass.encode_s = tallies ? tallies->encode_seconds_total() - encode0 : 0;
  sys->far->stop();

  const std::vector<double> at = sys->far->delivered_at();
  const auto delivered = [&](std::uint64_t seq) { return seq < at.size() && at[seq] >= 0; };
  pass.attempted = sent;
  for (std::uint64_t seq = 0; seq < sent; ++seq) {
    if (!delivered(seq)) ++pass.failed;
  }
  EndToEnd& e = pass.e2e;
  e.setup_s = pass.setup_s;
  e.wire_bytes = pass.link.wire_bytes;
  for (const Stretch& st : stretches) {
    Window w;
    w.wall_s = st.wall_s;
    w.cpu_s = st.cpu_s;
    for (std::size_t r = st.first_report; r < st.end_report; ++r) {
      const acex::adaptive::BlockReport& b = reports[r];
      w.published_bytes += static_cast<double>(b.original_size);
      pass.methods.push_back(b.method);
      if (!delivered(b.index)) continue;
      w.delivered_bytes += static_cast<double>(b.original_size);
      e.latency_s.push_back(at[b.index] - b.submitted);
    }
    e.windows.push_back(w);
  }
  return pass;
}

double goodput(const Pass& p) {
  return p.e2e.delivered_bytes() / (1024.0 * 1024.0) / p.e2e.wall_s();
}

}  // namespace

Outcome run_bulk_link(const Options& opts) {
  Bytes dataset;
  std::vector<Bytes> blocks;
  {
    const std::vector<Bytes> com = commercial_blocks(opts.seed, kDatasetBlocks, kBlockSize);
    const std::vector<Bytes> mol = molecular_blocks(opts.seed, kDatasetBlocks, kBlockSize);
    for (std::size_t i = 0; i < kDatasetBlocks; ++i) {
      const bool commercial = (i / kSegmentBlocks) % 2 == 0;
      blocks.push_back(commercial ? com[i] : mol[i]);
      dataset.insert(dataset.end(), blocks.back().begin(), blocks.back().end());
    }
  }
  Outcome out;
  out.input_checksum = input_checksum(blocks);
  const std::size_t workers = std::max<unsigned>(std::thread::hardware_concurrency(), 3) - 2;

  if (!opts.trace) {
    Pass p = run_pass(dataset, workers, opts.seconds, 15, nullptr, nullptr);
    out.attempted = p.attempted;
    out.failed = p.failed;
    add_end_to_end(out, p.e2e);
    return out;
  }

  // Traced run: an untraced reference, the traced pass, and the same
  // workload at one worker share the time budget.
  const double slice = opts.seconds / 3.0;
  const Pass ref = run_pass(dataset, workers, slice, 1, nullptr, nullptr);
  CodecTallies tallies;
  SelfTimer timer;
  const Pass traced = run_pass(dataset, workers, slice, 1, &tallies, &timer);
  const Pass one = run_pass(dataset, 1, slice, 1, nullptr, nullptr);
  out.attempted = ref.attempted + traced.attempted + one.attempted;
  out.failed = ref.failed + traced.failed + one.failed;

  const double closure = timer.print_budget("bulk_link driver thread (traced pass)");
  const double wall = timer.wall_s();
  double decode_s = 0;
  for (const MethodId m : ladder_methods()) decode_s += tallies.decode(m).seconds();
  std::printf("  concurrent: encode workers busy %.1f%% of %zu x wall; far-end decode %.1f%% "
              "of wall\n",
              100.0 * traced.encode_s / (static_cast<double>(workers) * wall), workers,
              100.0 * decode_s / wall);
  for (std::size_t t = 0; t < kTiers.size(); ++t) {
    std::printf("  link tier %-4s %5.2f MB/s:", kTiers[t].name, kTiers[t].rate_Bps / 1e6);
    for (const MethodId m : ladder_methods()) {
      std::printf(" %s %llu", acex::method_name(m).data(),
                  static_cast<unsigned long long>(traced.link.tier_methods[t][static_cast<int>(m)]));
    }
    std::printf(" blocks\n");
  }
  std::printf("  goodput untraced %.3f MiB/s, traced %.3f MiB/s, 1 worker %.3f MiB/s\n",
              goodput(ref), goodput(traced), goodput(one));

  for (const MethodId m : ladder_methods()) {
    const std::string name = acex::method_name(m).data();
    out.add("compress.encode_MBps." + name, tallies.encode(m).mbps(), "MB/s");
    out.add("compress.decode_MBps." + name, tallies.decode(m).mbps(), "MB/s");
    const double blocks_total = static_cast<double>(traced.methods.size());
    out.add("compress.block_share_pct." + name,
            100.0 * static_cast<double>(traced.link.method_blocks[static_cast<int>(m)]) /
                blocks_total,
            "%");
  }
  std::vector<ByteView> views(blocks.begin(), blocks.end());
  add_layer_probes(out, views, rate_of);
  out.add("adaptive.switches_per_100_blocks", switches_per_100(traced.methods), "count");
  out.add("adaptive.fallbacks", static_cast<double>(traced.fallbacks), "count");
  out.add("engine.worker_busy_pct",
          100.0 * traced.encode_s / (static_cast<double>(workers) * wall), "%");
  out.add("engine.driver_link_wait_pct", 100.0 * timer.self_s(Layer::kTransportLink) / wall, "%");
  out.add("engine.speedup_vs_1worker", goodput(ref) / goodput(one), "x");
  for (std::size_t t = 0; t < kTiers.size(); ++t) {
    const double seconds = traced.link.seconds[t];
    out.add(std::string("transport.link_util_pct.") + kTiers[t].name,
            seconds > 0 ? 100.0 * traced.link.bytes[t] / (kTiers[t].rate_Bps * seconds) : 0,
            "%");
  }
  out.add("bench.budget_closure_pct", closure, "%");
  out.add("bench.trace_overhead_pct", 100.0 * (goodput(ref) - goodput(traced)) / goodput(ref),
          "%");
  return out;
}

}  // namespace acexbench
