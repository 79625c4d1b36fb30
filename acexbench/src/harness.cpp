#include "harness.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"

#ifndef ACEXBENCH_BUILD_TYPE
#define ACEXBENCH_BUILD_TYPE "unknown"
#endif
#ifndef ACEXBENCH_CXX_FLAGS
#define ACEXBENCH_CXX_FLAGS "unknown"
#endif

namespace acexbench {

// ---- time -------------------------------------------------------------

double now_s() noexcept {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

void sleep_until_s(double t) {
  const double dt = t - now_s();
  if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

// ---- statistics -------------------------------------------------------

namespace {

/// 1-based rank of the nearest-rank p-th percentile of n > 0 samples. The
/// epsilon keeps p/100 * n from rounding up past an exact integer.
std::size_t nearest_rank(std::size_t n, double p) noexcept {
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9 * exact));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const std::size_t n = values.size();
  const std::size_t rank = nearest_rank(n, p);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) noexcept {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_supported_percentile(std::size_t n) noexcept {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0;
}

// ---- pacing -----------------------------------------------------------

double Pacer::reserve(std::size_t bytes, double rate_Bps, double now) noexcept {
  const double start = std::max(now - burst_s_, busy_until_);
  busy_until_ = start + static_cast<double>(bytes) / rate_Bps;
  return busy_until_;
}

double OpenLoop::issue(std::size_t index, double issued) {
  const double late = std::max(0.0, issued - due(index));
  lateness_.push_back(late);
  return late;
}

// ---- process accounting ----------------------------------------------

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

// ---- results ----------------------------------------------------------

void WindowRecorder::start() {
  opened_at_ = now_s();
  open_ = Window{};
  open_.cpu_s = usage_now().cpu_s;
}

void WindowRecorder::mark(double delivered_total, double published_total, bool last) {
  const double now = now_s();
  if (!last && now - opened_at_ < width_s_) return;
  const double cpu = usage_now().cpu_s;
  Window w;
  w.wall_s = now - opened_at_;
  w.delivered_bytes = delivered_total - open_.delivered_bytes;
  w.published_bytes = published_total - open_.published_bytes;
  w.cpu_s = cpu - open_.cpu_s;
  if (last && w.wall_s < width_s_ / 2 && !windows_.empty()) {
    Window& prev = windows_.back();
    prev.wall_s += w.wall_s;
    prev.delivered_bytes += w.delivered_bytes;
    prev.published_bytes += w.published_bytes;
    prev.cpu_s += w.cpu_s;
  } else {
    windows_.push_back(w);
  }
  opened_at_ = now;
  open_ = Window{0, delivered_total, published_total, cpu};
}

double EndToEnd::delivered_bytes() const noexcept {
  double sum = 0;
  for (const Window& w : windows) sum += w.delivered_bytes;
  return sum;
}

double EndToEnd::wall_s() const noexcept {
  double sum = 0;
  for (const Window& w : windows) sum += w.wall_s;
  return sum;
}

void add_end_to_end(Outcome& out, const EndToEnd& e) {
  constexpr double kMiB = 1024.0 * 1024.0;
  constexpr double kGiB = kMiB * 1024.0;
  std::vector<double> goodput;
  std::vector<double> cpu;
  for (const Window& w : e.windows) {
    goodput.push_back(w.delivered_bytes / kMiB / w.wall_s);
    cpu.push_back(w.cpu_s / (w.published_bytes / kGiB));
  }
  out.add("setup_s", e.setup_s, "s");
  out.add("goodput_MiBps", median(goodput), "MiB/s");
  out.add("wire_ratio_pct", 100.0 * e.wire_bytes / e.delivered_bytes(), "%");
  out.add("cpu_s_per_GiB", median(cpu), "s/GiB");
  out.add("deliver_p50_ms", 1e3 * percentile(e.latency_s, 50), "ms");
  out.add("deliver_p99_ms", 1e3 * percentile(e.latency_s, 99), "ms");
  out.add("failed_pct", out.failed_pct(), "%");
  out.add("rss_peak_MiB", usage_now().maxrss_mib, "MiB");
  out.latency_samples = e.latency_s.size();
  const double tail = highest_supported_percentile(e.latency_s.size());
  std::printf("latency: %zu (block, subscriber) samples; highest percentile with >= 10 beyond: "
              "p%g = %.4f ms\n",
              e.latency_s.size(), tail, 1e3 * percentile(e.latency_s, tail));
}

// ---- tracing ----------------------------------------------------------

namespace {
thread_local SelfTimer* t_timer = nullptr;
}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kEngineSendAll: return "engine.send_all";
    case Layer::kTransportLink: return "transport.link_send";
    case Layer::kCompressEncode: return "compress.encode";
    case Layer::kCompressDecode: return "compress.decode";
    case Layer::kBrokerPublish: return "broker.publish";
    case Layer::kShmFrameStage: return "shm.frame_stage";
    case Layer::kBrokerPump: return "broker.pump_all";
    case Layer::kShmEndpointSend: return "shm.endpoint_send";
    case Layer::kShmEndpointRecv: return "shm.endpoint_receive";
    case Layer::kNetClientPoll: return "net.client_poll";
    case Layer::kBenchVerify: return "bench.verify";
    case Layer::kBenchWait: return "bench.wait";
    case Layer::kCount: break;
  }
  return "?";
}

void SelfTimer::attach() {
  t_timer = this;
  start_ = now_s();
}

void SelfTimer::detach() {
  wall_s_ += now_s() - start_;
  if (t_timer == this) t_timer = nullptr;
}

double SelfTimer::covered_s() const noexcept {
  double sum = 0;
  for (const double s : self_) sum += s;
  return sum;
}

double SelfTimer::print_budget(const char* title) const {
  std::printf("where the time went: %s (wall %.3f s)\n", title, wall_s_);
  std::printf("  %-24s %10s %8s\n", "layer (self time)", "seconds", "% wall");
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    if (self_[i] <= 0) continue;
    std::printf("  %-24s %10.4f %8.2f\n", layer_name(static_cast<Layer>(i)), self_[i],
                100.0 * self_[i] / wall_s_);
  }
  const double covered = covered_s();
  std::printf("  %-24s %10.4f %8.2f\n", "(untraced)", wall_s_ - covered,
              100.0 * (wall_s_ - covered) / wall_s_);
  std::printf("  %-24s %10.4f %8.2f\n", "total", wall_s_, 100.0);
  return 100.0 * covered / wall_s_;
}

Span::Span(Layer layer) : timer_(t_timer) {
  if (timer_) timer_->stack_.push_back({layer, now_s(), 0.0});
}

Span::~Span() {
  if (!timer_) return;
  const SelfTimer::Open open = timer_->stack_.back();
  timer_->stack_.pop_back();
  const double d = now_s() - open.start;
  timer_->self_[static_cast<int>(open.layer)] += d - open.child;
  if (!timer_->stack_.empty()) timer_->stack_.back().child += d;
}

double CodecTally::mbps() const noexcept {
  const double s = seconds();
  return s > 0 ? static_cast<double>(bytes_in.load()) / 1e6 / s : 0.0;
}

double CodecTallies::encode_seconds_total() const noexcept {
  double sum = 0;
  for (const CodecTally& t : enc_) sum += t.seconds();
  return sum;
}

namespace {

void tally(CodecTally& t, std::chrono::steady_clock::time_point start,
           std::size_t bytes) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  t.ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
  t.bytes_in.fetch_add(bytes, std::memory_order_relaxed);
  t.calls.fetch_add(1, std::memory_order_relaxed);
}

/// Timing decorator over a built-in codec. Stateless apart from the inner
/// codec, so it keeps the Codec concurrency contract of what it wraps.
class TimedCodec final : public acex::Codec {
 public:
  TimedCodec(acex::CodecPtr inner, CodecTallies& tallies)
      : inner_(std::move(inner)), tallies_(&tallies) {}

  MethodId id() const noexcept override { return inner_->id(); }

  Bytes compress(ByteView input) override {
    const Span span(Layer::kCompressEncode);
    const auto start = std::chrono::steady_clock::now();
    Bytes out = inner_->compress(input);
    tally(tallies_->encode(id()), start, input.size());
    return out;
  }

  Bytes decompress(ByteView input) override {
    const Span span(Layer::kCompressDecode);
    const auto start = std::chrono::steady_clock::now();
    Bytes out = inner_->decompress(input);
    tally(tallies_->decode(id()), start, out.size());
    return out;
  }

 private:
  acex::CodecPtr inner_;
  CodecTallies* tallies_;
};

}  // namespace

void install_timed_codecs(acex::CodecRegistry& registry, CodecTallies& tallies) {
  for (const MethodId id : registry.methods()) {
    registry.register_factory(id, [id, &tallies]() -> acex::CodecPtr {
      return std::make_unique<TimedCodec>(acex::make_codec(id), tallies);
    });
  }
}

void warm_registry(const acex::CodecRegistry& registry) {
  for (const MethodId id : registry.methods()) (void)registry.create(id);
}

const std::vector<MethodId>& ladder_methods() {
  static const std::vector<MethodId> methods = {
      MethodId::kNone, MethodId::kHuffman, MethodId::kLempelZiv,
      MethodId::kBurrowsWheeler};
  return methods;
}

// ---- inputs -----------------------------------------------------------

std::vector<Bytes> commercial_blocks(std::uint64_t seed, std::size_t count,
                                     std::size_t block_size) {
  acex::workloads::TransactionGenerator gen(seed);
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) blocks.push_back(gen.text_block(block_size));
  return blocks;
}

std::vector<Bytes> molecular_blocks(std::uint64_t seed, std::size_t count,
                                    std::size_t block_size) {
  acex::workloads::MolecularConfig config;
  config.seed = seed;
  config.atom_count = 2048;
  acex::workloads::MolecularGenerator gen(config);
  std::vector<Bytes> blocks;
  blocks.reserve(count);
  Bytes pending;
  std::size_t used = 0;
  while (blocks.size() < count) {
    if (pending.size() - used < block_size) {
      pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(used));
      used = 0;
      gen.step();
      const Bytes snap = gen.pbio_snapshot();
      pending.insert(pending.end(), snap.begin(), snap.end());
      continue;
    }
    blocks.emplace_back(pending.begin() + static_cast<std::ptrdiff_t>(used),
                        pending.begin() + static_cast<std::ptrdiff_t>(used + block_size));
    used += block_size;
  }
  return blocks;
}

std::string input_checksum(const std::vector<Bytes>& blocks) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Bytes& b : blocks) {
    for (const std::uint8_t byte : b) {
      h ^= byte;
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

bool print_provenance(const char* workload, std::uint64_t seed,
                      const std::string& source_id, const std::string& checksum) {
  utsname un{};
  uname(&un);
#ifdef __OPTIMIZE__
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  const std::string build_type = ACEXBENCH_BUILD_TYPE;
  const bool valid = optimised && (build_type == "Release" || build_type == "RelWithDebInfo");
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"cpu\": \"%s\", \"kernel\": \"%s %s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"source\": \"%s\", "
      "\"input_checksum\": \"%s\", \"valid\": %s}}\n",
      workload, static_cast<unsigned long long>(seed),
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(un.sysname).c_str(), json_escape(un.release).c_str(),
      json_escape(__VERSION__).c_str(), json_escape(build_type).c_str(),
      json_escape(ACEXBENCH_CXX_FLAGS).c_str(), json_escape(source_id).c_str(),
      checksum.c_str(), valid ? "true" : "false");
  if (!valid) {
    std::printf("INVALID RESULT: the build is not optimised (build type %s)\n",
                build_type.c_str());
  }
  return valid;
}

}  // namespace acexbench
