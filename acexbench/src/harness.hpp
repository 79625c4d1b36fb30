#pragma once

// Shared machinery of acexbench: time, statistics, pacing, open-loop
// lateness accounting, process accounting, the layer self-time tracer,
// timing codec decorators, input generation and the result record.
//
// Everything here measures the library from OUTSIDE: the tracer times
// calls the benchmark makes into each module's public API, and the codec
// decorators are ordinary CodecRegistry factories. Nothing under src/ is
// instrumented for the benchmark's sake.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/registry.hpp"
#include "util/bytes.hpp"

namespace acexbench {

using acex::Bytes;
using acex::ByteView;
using acex::MethodId;

// ---- time -------------------------------------------------------------

/// Monotonic seconds on the same steady clock acex::MonotonicClock reads,
/// so transport-clock stamps (BlockReport.submitted) compare directly.
double now_s() noexcept;

/// Sleep until monotonic time `t` (returns at once if already past).
void sleep_until_s(double t);

// ---- statistics -------------------------------------------------------

double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in (0, 100]. 0 for no samples.
double percentile(std::vector<double> values, double p);

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
std::size_t samples_beyond(std::size_t n, double p) noexcept;

/// The highest of the reported percentiles (99.9, 99, 95, 90, 75, 50) that
/// still has at least ten samples beyond it; 0 when even the median lacks
/// them. A tail figure read from fewer samples would be one outlier.
double highest_supported_percentile(std::size_t n) noexcept;

/// At least this many samples make a p99 rest on ten samples beyond it.
inline constexpr std::size_t kMinLatencySamples = 1000;

// ---- pacing -----------------------------------------------------------

/// Serialization model of one link: each message occupies the link for
/// bytes / rate seconds, back to back. A sender that returns late from its
/// sleep does not lose link time: up to `burst_s` of idle link is credited
/// back, so the long-run rate of a saturated link equals the configured
/// rate no matter how coarse the sleep is.
class Pacer {
 public:
  explicit Pacer(double burst_s = 0.0002) : burst_s_(burst_s) {}

  /// Time at which a message of `bytes` entering at `now` has finished
  /// crossing a link of `rate_Bps`. Reserves the link up to that time.
  double reserve(std::size_t bytes, double rate_Bps, double now) noexcept;

 private:
  double burst_s_;
  double busy_until_ = -1e300;
};

/// Open-loop schedule: block i is due at start + i * interval whatever
/// happened to earlier blocks. Lateness of the generator itself is kept so
/// a run whose generator could not keep up is visible.
class OpenLoop {
 public:
  OpenLoop(double start, double interval) : start_(start), interval_(interval) {}

  double due(std::size_t index) const noexcept {
    return start_ + static_cast<double>(index) * interval_;
  }

  /// Record that block `index` was actually handed over at `issued`;
  /// returns its lateness (never negative).
  double issue(std::size_t index, double issued);

  /// Lateness of every issued block, in issue order (seconds).
  const std::vector<double>& lateness() const noexcept { return lateness_; }

 private:
  double start_;
  double interval_;
  std::vector<double> lateness_;
};

// ---- process accounting ----------------------------------------------

struct Usage {
  double cpu_s = 0;       ///< user + system CPU of the whole process
  double maxrss_mib = 0;  ///< peak resident set of the process
};
Usage usage_now();

// ---- results ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main: the deliveries it attempted
/// and failed, and either the end-to-end or the per-layer metrics.
struct Outcome {
  std::uint64_t attempted = 0;  ///< (block, subscriber) deliveries
  std::uint64_t failed = 0;     ///< missing or not byte-identical at end
  std::vector<Metric> metrics;
  std::string input_checksum;   ///< of the generated blocks
  std::size_t latency_samples = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  double failed_pct() const noexcept {
    return attempted == 0 ? 100.0
                          : 100.0 * static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One stretch of a timed region. Goodput and CPU cost are reported as
/// medians over windows, so a burst of contention from other tenants of
/// the host moves one window, not the run.
struct Window {
  double wall_s = 0;
  double delivered_bytes = 0;  ///< original bytes, summed over subscribers
  double published_bytes = 0;  ///< original bytes handed to the program
  double cpu_s = 0;            ///< process CPU (getrusage) over the window
};

/// Cuts a timed region into windows of about `width_s` from cumulative
/// totals the workload reports as it goes. A last stretch shorter than
/// half a window joins the window before it.
class WindowRecorder {
 public:
  explicit WindowRecorder(double width_s) : width_s_(width_s) {}
  void start();
  /// Close the current window when it is `width_s` old, or when `last`.
  void mark(double delivered_total, double published_total, bool last = false);
  const std::vector<Window>& windows() const noexcept { return windows_; }

 private:
  double width_s_;
  Window open_;  ///< the values at the start of the open window
  double opened_at_ = 0;
  std::vector<Window> windows_;
};

/// Inputs of the end-to-end metrics shared by every workload.
struct EndToEnd {
  double setup_s = 0;
  std::vector<Window> windows;
  double wire_bytes = 0;  ///< framed bytes, summed over subscribers
  std::vector<double> latency_s;

  double delivered_bytes() const noexcept;
  double wall_s() const noexcept;
};
/// Append the eight end-to-end metrics to `out` and print the latency
/// sample count with the highest percentile those samples support.
void add_end_to_end(Outcome& out, const EndToEnd& e2e);

// ---- tracing ----------------------------------------------------------

/// The layers whose self time the "where the time went" table reports.
/// Names follow the module that owns the timed call.
enum class Layer : int {
  kEngineSendAll,     ///< ParallelSender::send_all, minus children
  kTransportLink,     ///< paced link send(): the wire
  kCompressEncode,    ///< codec compress() on a traced thread
  kCompressDecode,    ///< codec decompress() on a traced thread
  kBrokerPublish,     ///< FanoutBroker::publish, minus children
  kShmFrameStage,     ///< ShmBus frame builder (frame + slab staging)
  kBrokerPump,        ///< FanoutBroker::pump_all, minus children
  kShmEndpointSend,   ///< ShmEndpoint::send_buffer (descriptor enqueue)
  kShmEndpointRecv,   ///< ShmEndpoint::receive_buffer
  kNetClientPoll,     ///< DaemonClient::poll (includes decode)
  kBenchVerify,       ///< byte-identity checks
  kBenchWait,         ///< waiting for the far end, a schedule or a thread
  kCount
};
const char* layer_name(Layer layer) noexcept;

/// Self-time accounting for ONE thread. A span's self time is its duration
/// minus the time of spans opened inside it on the same thread. Only the
/// thread that called attach() records; spans elsewhere cost one
/// thread-local load.
class SelfTimer {
 public:
  void attach();  ///< make this the calling thread's timer; wall runs
  void detach();  ///< stop recording; the wall pauses until attach()

  double wall_s() const noexcept { return wall_s_; }
  double self_s(Layer layer) const noexcept {
    return self_[static_cast<int>(layer)];
  }
  double covered_s() const noexcept;

  /// Print the "where the time went" table; returns closure in percent.
  double print_budget(const char* title) const;

 private:
  friend class Span;
  struct Open {
    Layer layer;
    double start;
    double child;
  };
  std::array<double, static_cast<int>(Layer::kCount)> self_{};
  std::vector<Open> stack_;
  double start_ = 0;
  double wall_s_ = 0;
};

/// RAII span on the calling thread's SelfTimer (a no-op without one).
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SelfTimer* timer_;
};

/// Per-method call tallies of codec work, fed by the timing decorators.
struct CodecTally {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> calls{0};

  double seconds() const noexcept { return ns.load() * 1e-9; }
  /// Input MB/s (10^6 bytes) of the timed calls; 0 before any call.
  double mbps() const noexcept;
};

class CodecTallies {
 public:
  CodecTally& encode(MethodId m) noexcept { return enc_[static_cast<int>(m)]; }
  CodecTally& decode(MethodId m) noexcept { return dec_[static_cast<int>(m)]; }
  double encode_seconds_total() const noexcept;

 private:
  std::array<CodecTally, 256> enc_;
  std::array<CodecTally, 256> dec_;
};

/// Replace every factory of `registry` with one that wraps the built-in
/// codec in a timing decorator feeding `tallies` (and a Span on traced
/// threads). Call before the registry freezes. `tallies` must outlive
/// every codec the registry creates.
void install_timed_codecs(acex::CodecRegistry& registry, CodecTallies& tallies);

/// Create (and drop) one codec of each method, so the first timed block
/// does not pay for lazy set-up.
void warm_registry(const acex::CodecRegistry& registry);

/// The methods the §2.5 selector chooses among, named in per-method
/// metrics with acex::method_name.
const std::vector<MethodId>& ladder_methods();

// ---- inputs -----------------------------------------------------------

/// Commercial (airline-operations log text) blocks of `block_size` bytes.
std::vector<Bytes> commercial_blocks(std::uint64_t seed, std::size_t count,
                                     std::size_t block_size);

/// Molecular-dynamics PBIO snapshot stream cut into `block_size` blocks.
std::vector<Bytes> molecular_blocks(std::uint64_t seed, std::size_t count,
                                    std::size_t block_size);

/// FNV-1a 64 over the blocks in order, as 16 hex digits: printed with the
/// provenance so two runs provably saw the same bytes.
std::string input_checksum(const std::vector<Bytes>& blocks);

/// Emit a one-line JSON object on stdout describing where and from what a
/// result came. `valid` is false when the build was not optimised.
bool print_provenance(const char* workload, std::uint64_t seed,
                      const std::string& source_id,
                      const std::string& checksum);

}  // namespace acexbench
