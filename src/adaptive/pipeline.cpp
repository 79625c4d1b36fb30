#include "adaptive/pipeline.hpp"

#include <algorithm>
#include <array>

#include "engine/block_pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace acex::adaptive {
namespace {

// Escalation ladder, weakest to strongest — the selector's shared
// kDecisionLadder (decision.hpp), reused by the target-rate escalator and
// the circuit breaker's demotion walk.
constexpr const std::array<MethodId, 4>& kLadder = kDecisionLadder;

// ---- observability (DESIGN.md §9) ------------------------------------
// Instrument handles are resolved once and cached; every record after
// that is lock-free. Series are process-wide: concurrent senders feed the
// same aggregates, which is what a per-process dashboard wants.

/// Per-method latency histogram, keyed by the small contiguous MethodId
/// range so the hot path indexes an array instead of hashing a name.
class MethodHistograms {
 public:
  explicit MethodHistograms(std::string_view name) {
    for (std::size_t i = 0; i < cache_.size(); ++i) {
      cache_[i] = &obs::MetricsRegistry::global().histogram(
          name, "method", method_name(static_cast<MethodId>(i)));
    }
    fallback_name_ = std::string(name);
  }

  obs::Histogram& for_method(MethodId m) {
    const auto idx = static_cast<std::size_t>(m);
    if (idx < cache_.size()) return *cache_[idx];
    // Off-range ids (kZlib, custom codecs): pay the registry lookup.
    return obs::MetricsRegistry::global().histogram(fallback_name_, "method",
                                                    method_name(m));
  }

 private:
  std::array<obs::Histogram*, 6> cache_{};  // kNone..kLzw
  std::string fallback_name_;
};

struct SenderMetrics {
  obs::Counter& blocks;          ///< blocks transmitted
  obs::Counter& bytes_original;  ///< payload bytes in
  obs::Counter& bytes_wire;      ///< framed bytes out
  obs::Counter& fallbacks;       ///< blocks degraded to the null codec
  obs::Counter& retransmits;     ///< frames replayed on NACK
  obs::Histogram& send_us;       ///< transport-clock accept time per frame
  MethodHistograms encode_us;    ///< raw encode CPU per requested method
};

SenderMetrics& sender_metrics() {
  auto& r = obs::MetricsRegistry::global();
  static SenderMetrics m{r.counter("acex.adaptive.blocks"),
                         r.counter("acex.adaptive.bytes_original"),
                         r.counter("acex.adaptive.bytes_wire"),
                         r.counter("acex.adaptive.fallbacks"),
                         r.counter("acex.adaptive.retransmits"),
                         r.histogram("acex.adaptive.send_us"),
                         MethodHistograms("acex.adaptive.encode_us")};
  return m;
}

struct ReceiverMetrics {
  obs::Counter& frames;           ///< frames drained off the transport
  obs::Counter& frames_ok;
  obs::Counter& frames_corrupt;
  obs::Counter& frames_duplicate;
  obs::Counter& bytes_recovered;
  obs::Counter& resyncs;          ///< corrupt frames skipped, stream resumed
  obs::Counter& seq_rejected;     ///< sequences outside the gap window
  obs::Counter& nacks_issued;
  obs::Gauge& abandoned;          ///< sum of nacks_abandoned()
  MethodHistograms decode_us;     ///< decode CPU per wire method
};

/// Per-policy decision counter ("acex.adaptive.decisions" labeled by
/// policy), cached over the small contiguous policy-id range so the
/// planning path never hashes a name.
obs::Counter& decision_counter(DecisionPolicy policy) {
  static const auto cache = [] {
    std::array<obs::Counter*, 4> c{};
    for (const DecisionPolicy p : all_policies()) {
      c[static_cast<std::size_t>(p)] =
          &obs::MetricsRegistry::global().counter("acex.adaptive.decisions",
                                                  "policy", policy_name(p));
    }
    return c;
  }();
  return *cache[static_cast<std::size_t>(policy)];
}

ReceiverMetrics& receiver_metrics() {
  auto& r = obs::MetricsRegistry::global();
  static ReceiverMetrics m{r.counter("acex.adaptive.rx.frames"),
                           r.counter("acex.adaptive.rx.frames_ok"),
                           r.counter("acex.adaptive.rx.frames_corrupt"),
                           r.counter("acex.adaptive.rx.frames_duplicate"),
                           r.counter("acex.adaptive.rx.bytes_recovered"),
                           r.counter("acex.adaptive.rx.resyncs"),
                           r.counter("acex.adaptive.rx.seq_rejected"),
                           r.counter("acex.adaptive.rx.nacks_issued"),
                           r.gauge("acex.adaptive.rx.abandoned"),
                           MethodHistograms("acex.adaptive.rx.decode_us")};
  return m;
}

}  // namespace

PayloadEncode encode_payload(const CodecRegistry& registry, ByteView block,
                             MethodId method,
                             std::size_t expansion_slack_bytes,
                             bool allow_degrade) {
  PayloadEncode result;
  result.method = method;
  // Compress under real (monotonic) time — that is the CPU capability the
  // algorithm adapts to; the caller charges the scaled cost to whatever
  // timeline its experiment runs on.
  MonotonicClock cpu_clock;
  const Stopwatch cpu(cpu_clock);
  bool degraded = false;
  try {
    const CodecPtr codec = registry.create(method);
    result.payload = BufferView::own(codec->compress(block));
    // The codec "succeeded" but its frame would be bigger than the block's
    // null frame — on the wire that is a failure. Frames of equal sequence
    // differ only in the payload and its size varint, so sequence 0 judges
    // every sequence.
    degraded = allow_degrade && method != MethodId::kNone &&
               result.payload.size() +
                       frame_overhead_seq(result.payload.size(), 0) >
                   block.size() + frame_overhead_seq(block.size(), 0) +
                       expansion_slack_bytes;
  } catch (const Error&) {
    if (!allow_degrade) throw;
    degraded = true;
    result.threw = true;
  }
  if (degraded) {
    // The null codec's output IS the block: borrow it instead of copying.
    // The caller's block outlives the PayloadEncode (struct contract).
    result.payload = BufferView::borrow(block);
    result.method = MethodId::kNone;
    result.fallback = true;
  }
  result.encode_seconds = cpu.elapsed();
  // Latency is attributed to the *requested* method — a fallback's cost is
  // the failed codec's cost, not the null codec's.
  sender_metrics().encode_us.for_method(method).record(result.encode_seconds *
                                                       1e6);
  return result;
}

EncodeResult encode_block(const CodecRegistry& registry, ByteView block,
                          MethodId method, std::uint64_t sequence,
                          std::size_t expansion_slack_bytes,
                          bool allow_degrade) {
  EncodeResult result;
  result.method = method;
  MonotonicClock cpu_clock;
  const obs::ScopedSpan span(obs::BlockTracer::global(), sequence,
                             obs::Stage::kEncode, obs::current_worker());
  const Stopwatch cpu(cpu_clock);
  try {
    const PayloadEncode payload = encode_payload(
        registry, block, method, expansion_slack_bytes, allow_degrade);
    result.framed = BufferView::own(frame_build_seq(
        payload.method, payload.payload, crc32(block), sequence));
    result.method = payload.method;
    result.fallback = payload.fallback;
    result.threw = payload.threw;
  } catch (const Error&) {
    // Only without degradation: the fixed-method caller rethrows it.
    result.failure = std::current_exception();
  }
  result.encode_seconds = cpu.elapsed();
  return result;
}

AdaptiveSender::AdaptiveSender(transport::Transport& transport,
                               AdaptiveConfig config)
    : transport_(&transport),
      config_(std::move(config)),
      sampler_(config_.decision.sample_size) {
  config_.decision.validate();
  if (config_.initial_bandwidth_Bps <= 0 || config_.cpu_scale <= 0) {
    throw ConfigError("adaptive: bandwidth and cpu_scale must be positive");
  }
  if (config_.target_rate_Bps < 0) {
    throw ConfigError("adaptive: target_rate_Bps must be >= 0");
  }
  ring_ = transport::RetransmitRing(config_.retransmit_capacity,
                                    config_.retransmit_max_retries,
                                    config_.retransmit_max_bytes);
}

MethodId AdaptiveSender::apply_circuit_breaker(
    MethodId method) const noexcept {
  std::size_t rung = 0;
  while (rung < std::size(kLadder) && kLadder[rung] != method) ++rung;
  if (rung == std::size(kLadder)) return method;  // not on the ladder

  // Walk down to the strongest method whose breaker is closed; kNone can
  // never fail, so the walk always terminates on a usable rung.
  for (;; --rung) {
    const MethodId candidate = kLadder[rung];
    const auto it = health_.find(candidate);
    if (it == health_.end() || blocks_sent_ >= it->second.quarantined_until) {
      return candidate;
    }
    if (rung == 0) return MethodId::kNone;
  }
}

void AdaptiveSender::note_codec_failure(MethodId method) {
  MethodHealth& health = health_[method];
  // A failure of the post-cooldown probe re-trips the breaker on the spot:
  // the method already proved unhealthy once, so it does not get another
  // `threshold` free failures per cooldown.
  const bool probe_failed =
      health.probation && blocks_sent_ >= health.quarantined_until;
  if (probe_failed ||
      ++health.consecutive_failures >= kBreakerFailureThreshold) {
    health.quarantined_until = blocks_sent_ + kBreakerCooldownBlocks;
    health.consecutive_failures = 0;
    health.probation = true;
    ++degradation_.quarantines;
  }
}

void AdaptiveSender::note_codec_success(MethodId method) noexcept {
  const auto it = health_.find(method);
  if (it != health_.end()) {
    it->second.consecutive_failures = 0;
    it->second.probation = false;  // probe succeeded: breaker fully closed
  }
}

BlockReport AdaptiveSender::finish_block(const BlockPlan& plan,
                                         std::size_t original_size,
                                         EncodeResult encoded) {
  if (encoded.failure) std::rethrow_exception(encoded.failure);
  const obs::ScopedSpan span(obs::BlockTracer::global(), plan.sequence,
                             obs::Stage::kFinish);

  BlockReport report;
  report.index = plan.sequence;
  report.method = encoded.method;
  report.requested_method = plan.method;
  report.fallback = encoded.fallback;
  report.original_size = original_size;
  report.sampled_ratio_percent = plan.sampled_ratio_percent;
  report.bandwidth_estimate_Bps = plan.bandwidth_estimate_Bps;
  report.compress_seconds = encoded.encode_seconds / config_.cpu_scale;
  if (config_.on_cpu_time) config_.on_cpu_time(report.compress_seconds);

  if (plan.allow_degrade) {
    if (encoded.fallback) {
      if (encoded.threw) {
        ++degradation_.codec_failures;
      } else {
        ++degradation_.expansions;
      }
      ++degradation_.fallbacks;
      note_codec_failure(plan.method);
    } else {
      note_codec_success(plan.method);
    }
  }
  if (!report.fallback) {
    monitor_.record(encoded.method, original_size, encoded.framed.size(),
                    std::max(report.compress_seconds, 1e-9));
  }
  if (encoded.method == MethodId::kLempelZiv && sample_speed_.has_value()) {
    // Anchor the drift correction: this is what the sampler reported while
    // the block-granularity measurement above was current.
    sample_speed_ref_ = sample_speed_.value_or(0.0);
  }

  const Clock& wire_clock = transport_->clock();
  report.submitted = wire_clock.now();
  {
    const obs::ScopedSpan tx(obs::BlockTracer::global(), plan.sequence,
                             obs::Stage::kTransmit);
    try {
      transport_->send_buffer(encoded.framed);
    } catch (...) {
      // The wire frame is final even though this delivery failed; keep it
      // replayable so a bounded egress wait (EgressTimeout) stays
      // recoverable loss instead of a permanent stream gap.
      ring_.store(plan.sequence, std::move(encoded.framed));
      throw;
    }
  }
  report.delivered = wire_clock.now();
  report.send_seconds = report.delivered - report.submitted;
  report.wire_size = encoded.framed.size();

  SenderMetrics& metrics = sender_metrics();
  metrics.blocks.add(1);
  metrics.bytes_original.add(original_size);
  metrics.bytes_wire.add(report.wire_size);
  if (report.fallback) metrics.fallbacks.add(1);
  // Transport-clock time: under a VirtualClock this is modeled seconds,
  // which is exactly what the experiment wants on the dashboard.
  metrics.send_us.record(report.send_seconds * 1e6);

  if (!config_.external_bandwidth_feedback) {
    bandwidth_.record(encoded.framed.size(), report.send_seconds);
  }
  ring_.store(plan.sequence, std::move(encoded.framed));
  return report;
}

std::size_t AdaptiveSender::retransmit(
    const std::vector<std::uint64_t>& sequences) {
  std::size_t sent = 0;
  for (const std::uint64_t seq : sequences) {
    if (const BufferView* wire = ring_.replay(seq)) {
      const obs::ScopedSpan tx(obs::BlockTracer::global(), seq,
                               obs::Stage::kTransmit);
      transport_->send_buffer(*wire);
      ++sent;
      ++degradation_.retransmits;
      sender_metrics().retransmits.add(1);
    }
  }
  return sent;
}

std::optional<std::size_t> AdaptiveSender::replay_range(std::uint64_t from,
                                                        std::uint64_t to) {
  // Verify the whole gap is still held BEFORE sending anything: a partial
  // replay would hand the resumed receiver an unfillable hole while
  // claiming success.
  for (std::uint64_t seq = from; seq < to; ++seq) {
    if (ring_.peek(seq) == nullptr) return std::nullopt;
  }
  std::size_t sent = 0;
  for (std::uint64_t seq = from; seq < to; ++seq) {
    const BufferView* wire = ring_.peek(seq);
    const obs::ScopedSpan tx(obs::BlockTracer::global(), seq,
                             obs::Stage::kTransmit);
    transport_->send_buffer(*wire);
    ++sent;
  }
  return sent;
}

void AdaptiveSender::reset_adaptation() noexcept {
  monitor_.reset();
  bandwidth_.reset();
  sample_speed_.reset();
  sample_speed_ref_ = 0;
}

MethodId AdaptiveSender::apply_target_rate(
    MethodId base, double bandwidth_Bps,
    double sampled_ratio_percent) const noexcept {
  // The shared ladder; the break-even choice is the floor — a target never
  // justifies picking something weaker than what the §2.5 algorithm
  // already considered worthwhile.
  const double lz_ratio = sampled_ratio_percent / 100.0;
  std::size_t rung = 0;
  while (rung < std::size(kLadder) && kLadder[rung] != base) ++rung;
  if (rung == std::size(kLadder)) return base;  // not on the ladder

  // Effective payload rate = link rate / wire ratio. Climb until it meets
  // the target or the ladder tops out.
  while (rung + 1 < std::size(kLadder) &&
         bandwidth_Bps / expected_ratio(kLadder[rung], lz_ratio) <
             config_.target_rate_Bps) {
    ++rung;
  }
  return kLadder[rung];
}

double AdaptiveSender::expected_ratio(MethodId method,
                                      double lz_ratio) const noexcept {
  switch (method) {
    case MethodId::kNone:
      return 1.0;
    case MethodId::kHuffman:
      return monitor_.ratio_or(MethodId::kHuffman, 0.65);
    case MethodId::kLempelZiv:
      return monitor_.ratio_or(MethodId::kLempelZiv, lz_ratio);
    case MethodId::kBurrowsWheeler:
      // BW tracks LZ's repetition structure with a modest edge (Fig. 2).
      return monitor_.ratio_or(MethodId::kBurrowsWheeler, lz_ratio * 0.85);
    default:
      return 1.0;
  }
}

std::array<MethodEstimate, kDecisionLadder.size()>
AdaptiveSender::estimate_ladder(std::size_t block_size,
                                double sampled_ratio_percent) const noexcept {
  const double lz_ratio = sampled_ratio_percent / 100.0;
  const double block = static_cast<double>(block_size);

  // LZ encode time from the reducing-speed estimate: reducing speed is
  // bytes REMOVED per second, so t = removed / speed. When the estimate is
  // unavailable (or the sample says the block is incompressible, removing
  // nothing), the time stays 0 — "first block is infinity" optimism.
  const double lz_speed = lz_reducing_speed_estimate(block_size);
  const double lz_encode =
      lz_speed > 0 ? block * std::max(0.0, 1.0 - lz_ratio) / lz_speed : 0.0;

  // Fig. 1's static compress-time ratings as throughput relative to LZ:
  // Huffman is Excellent (a cheap order-0 pass), Burrows-Wheeler Poor
  // (block-sort dominated). Measured throughput overrides the guess.
  const auto encode_seconds = [&](MethodId m, double relative_to_lz) {
    if (monitor_.has_sample(m)) {
      const double tput = monitor_.throughput_or(m, 0.0);
      if (tput > 0) return block / tput;
    }
    return relative_to_lz > 0 ? lz_encode / relative_to_lz : 0.0;
  };

  std::array<MethodEstimate, kDecisionLadder.size()> estimates{};
  for (std::size_t rung = 0; rung < kDecisionLadder.size(); ++rung) {
    const MethodId m = kDecisionLadder[rung];
    estimates[rung].ratio = expected_ratio(m, lz_ratio);
    switch (m) {
      case MethodId::kNone:
        estimates[rung].encode_seconds = 0.0;
        break;
      case MethodId::kHuffman:
        estimates[rung].encode_seconds = encode_seconds(m, 2.2);
        break;
      case MethodId::kLempelZiv:
        estimates[rung].encode_seconds = encode_seconds(m, 1.0);
        break;
      case MethodId::kBurrowsWheeler:
        estimates[rung].encode_seconds = encode_seconds(m, 0.12);
        break;
      default:
        break;
    }
  }
  return estimates;
}

double AdaptiveSender::lz_reducing_speed_estimate(
    std::size_t block_size) const noexcept {
  (void)block_size;
  if (monitor_.has_sample(MethodId::kLempelZiv)) {
    double speed = monitor_.reducing_speed_or(MethodId::kLempelZiv, 0.0);
    if (sample_speed_ref_ > 0 && sample_speed_.has_value()) {
      // CPU-load drift since the last LZ block: if sampling got slower,
      // blocks would too, proportionally.
      speed *= sample_speed_.value_or(sample_speed_ref_) / sample_speed_ref_;
    }
    return speed;
  }
  if (sample_speed_.has_value()) {
    // No block-granularity measurement yet: extrapolate from the sampler,
    // converted to the emulated-host scale. This overestimates (small
    // compressions are cache-friendly), which matches the paper's
    // aggressive "assume the reducing size speed of first block is
    // infinity" starting rule.
    return sample_speed_.value_or(0.0) * config_.cpu_scale;
  }
  return 0.0;  // "infinity" semantics in decide()
}

BlockPlan AdaptiveSender::plan_block(ByteView block, ByteView next_block) {
  if (block.size() > config_.decision.block_size) {
    throw ConfigError("adaptive: block exceeds configured block_size");
  }
  if (raw_only()) {
    // A sample launched while the governor was open is of THIS block:
    // drop it, or a later block would be planned from it. Launch none.
    sampler_.wait();
    return plan_block_raw(block);
  }
  // The sampler result for THIS block: the paper computes it during the
  // previous block's send; we launch it there (async) and collect it here.
  SampleResult sample;
  if (auto pending = sampler_.wait()) {
    sample = *pending;
  } else {
    sample = sampler_.sample(block);  // first block: no overlap available
  }

  // "Fork a sampling process to compress the first 4KB of the next block"
  // — overlapped with this block's compression and send, collected by the
  // next plan_block's wait().
  if (config_.async_sampling && !next_block.empty()) {
    sampler_.launch(next_block);
  }
  return plan_block_sampled(block, sample);
}

BlockPlan AdaptiveSender::plan_block_sampled(ByteView block,
                                             const SampleResult& sample) {
  if (block.size() > config_.decision.block_size) {
    throw ConfigError("adaptive: block exceeds configured block_size");
  }
  // The sequence is assigned at the end of planning; bind it late.
  obs::ScopedSpan span(obs::BlockTracer::global(), blocks_sent_,
                       obs::Stage::kPlan);

  // Track the sampler's raw reducing speed. It is NOT comparable to block
  // speeds in absolute terms (4 KiB compressions run much faster per byte
  // than 128 KiB ones), so it feeds the drift correction in
  // lz_reducing_speed_estimate() rather than the block-speed monitor.
  if (sample.sample_bytes > 0 && sample.reducing_speed > 0) {
    sample_speed_.add(sample.reducing_speed);
  }

  SelectionInputs inputs;
  const double bw =
      bandwidth_.estimate_or(config_.initial_bandwidth_Bps);
  inputs.send_seconds = static_cast<double>(block.size()) / bw;
  const double lz_speed = lz_reducing_speed_estimate(block.size());
  inputs.lz_reduce_seconds =
      lz_speed > 0 ? static_cast<double>(block.size()) / lz_speed : 0.0;
  inputs.sampled_ratio_percent = sample.ratio_percent;

  MethodId method;
  if (config_.decision.policy == DecisionPolicy::kBandwidth) {
    // The §2.5 rule, bit-identical to the original engine, composed with
    // the target-rate escalator exactly as before.
    method = decide(inputs, config_.decision);
    if (config_.target_rate_Bps > 0) {
      method = apply_target_rate(method, bw, sample.ratio_percent);
    }
  } else {
    // Scored policies consume absolute costs: per-rung (ratio, CPU)
    // expectations plus the link rate and the user's rate floor. The
    // target-rate escalator does NOT compose here — kTargetRate owns the
    // floor, the others deliberately ignore it.
    inputs.block_bytes = block.size();
    inputs.bandwidth_Bps = bw;
    inputs.target_rate_Bps = config_.target_rate_Bps;
    inputs.estimates = estimate_ladder(block.size(), sample.ratio_percent);
    method = decide_policy(inputs, config_.decision);
  }
  decision_counter(config_.decision.policy).add(1);
  method = apply_circuit_breaker(method);
  if (config_.method_governor) {
    // Overload governor (session degradation ladder); its choice passes
    // through the breaker once more so a downgrade can never resurrect a
    // quarantined method. The breaker only demotes, so order is stable.
    method = apply_circuit_breaker(config_.method_governor(method));
  }

  BlockPlan plan;
  plan.sequence = blocks_sent_++;
  plan.method = method;
  plan.sampled_ratio_percent = sample.ratio_percent;
  plan.bandwidth_estimate_Bps = bw;
  span.set_block(plan.sequence);
  return plan;
}

bool AdaptiveSender::raw_only() const {
  const auto& governor = config_.method_governor;
  // The governor's choice passes the breaker, which only demotes, so a
  // ladder mapped wholly to kNone plans kNone whatever the sample says.
  return governor && std::all_of(kLadder.begin(), kLadder.end(),
                                 [&governor](MethodId m) {
                                   return governor(m) == MethodId::kNone;
                                 });
}

BlockPlan AdaptiveSender::plan_block_raw(ByteView block) {
  if (block.size() > config_.decision.block_size) {
    throw ConfigError("adaptive: block exceeds configured block_size");
  }
  const obs::ScopedSpan span(obs::BlockTracer::global(), blocks_sent_,
                             obs::Stage::kPlan);
  BlockPlan plan;  // kNone at the unsampled ratio, degradation allowed
  plan.sequence = blocks_sent_++;
  plan.bandwidth_estimate_Bps =
      bandwidth_.estimate_or(config_.initial_bandwidth_Bps);
  return plan;
}

BlockPlan AdaptiveSender::plan_block_fixed(ByteView block, MethodId method) {
  BlockPlan plan = plan_block_raw(block);
  plan.method = method;
  // Fixed sends are the paper's baselines: no degradation, no breaker —
  // "always-BW" must stay BW even when that is a bad idea.
  plan.allow_degrade = false;
  return plan;
}

void StreamReport::finalize() noexcept {
  for (const auto& b : blocks) {
    original_bytes += b.original_size;
    wire_bytes += b.wire_size;
    compress_seconds += b.compress_seconds;
  }
  if (!blocks.empty()) {
    total_seconds = blocks.back().delivered - blocks.front().submitted +
                    blocks.front().compress_seconds;
  }
}

StreamReport AdaptiveSender::send_all(ByteView data) {
  return run(data, std::nullopt);
}

StreamReport AdaptiveSender::send_all_fixed(ByteView data, MethodId method) {
  return run(data, method);
}

StreamReport AdaptiveSender::run(ByteView data,
                                 std::optional<MethodId> fixed) {
  // One block's journey through the pipeline: the serial plan rides along
  // with the encode result so the block can be finished without any
  // side-channel state.
  struct ReadyBlock {
    BlockPlan plan;
    std::size_t original_size = 0;
    EncodeResult encoded;
  };

  const std::size_t workers = worker_count();
  // Window of 2x the workers: enough slack that a straggler block does not
  // idle the pool, small enough that buffering stays a handful of blocks.
  // The pool queue matches the window — the driver never outruns either.
  const std::size_t window = std::max<std::size_t>(2 * workers, 4);
  if (workers > 1 && !pool_) {
    // Workers share the registry read-only from here on; freezing makes a
    // concurrent register_factory() a loud error instead of a data race.
    registry_.freeze();
    pool_ = std::make_unique<engine::ThreadPool>(workers, window);
  }
  const std::size_t block_size = config_.decision.block_size;

  StreamReport stream;
  // Without a pool (1 worker) every encode runs inline in submit().
  engine::ParallelBlockPipeline<ReadyBlock> pipeline(pool_.get(), window);
  const auto finish = [&](ReadyBlock ready) {
    stream.blocks.push_back(finish_block(ready.plan, ready.original_size,
                                         std::move(ready.encoded)));
  };

  for (std::size_t off = 0; off < data.size(); off += block_size) {
    const std::size_t len = std::min(block_size, data.size() - off);
    const ByteView block = data.subspan(off, len);
    const std::size_t next_off = off + len;
    const ByteView next =
        !fixed && next_off < data.size()
            ? data.subspan(next_off,
                           std::min(block_size, data.size() - next_off))
            : ByteView{};

    // Serial: sample + decide (adaptive) or just claim a sequence (fixed).
    const BlockPlan plan =
        fixed ? plan_block_fixed(block, *fixed) : plan_block(block, next);

    // Keep in-flight strictly below the window before submitting: the
    // blocking collect doubles as backpressure on planning, and it
    // guarantees workers never block pushing into the reorder window
    // (every live sequence stays inside it), so this single driver thread
    // cannot deadlock against its own pipeline.
    while (pipeline.in_flight() >= pipeline.window_capacity()) {
      finish(pipeline.collect());
    }
    pipeline.submit([this, plan, block] {
      return ReadyBlock{plan, block.size(),
                        encode_block(registry_, block, plan.method,
                                     plan.sequence,
                                     config_.expansion_slack_bytes,
                                     plan.allow_degrade)};
    });

    // Opportunistic drain: ship whatever completed in order while the
    // workers chew on the rest.
    ReadyBlock ready;
    while (pipeline.try_collect(ready)) finish(std::move(ready));
  }
  while (pipeline.in_flight() > 0) finish(pipeline.collect());
  stream.finalize();
  return stream;
}

AdaptiveReceiver::AdaptiveReceiver(transport::Transport& transport,
                                   ReceiverConfig config)
    : transport_(&transport),
      config_(config),
      window_(config.nack_retry_cap, config.gap_window) {}

ReceiveReport AdaptiveReceiver::receive_report() {
  ReceiveReport report;
  MonotonicClock cpu_clock;
  ReceiverMetrics& metrics = receiver_metrics();
  obs::BlockTracer& tracer = obs::BlockTracer::global();
  // receive_buffer(): the wire bytes may alias transport-owned storage (a
  // mapped shm slab); the BufferView frame_parse overload then lets decode
  // read the compressed payload in place — zero copies receiver-side.
  while (std::optional<BufferView> message = transport_->receive_buffer()) {
    FrameOutcome outcome;
    outcome.wire_size = message->size();
    metrics.frames.add(1);
    try {
      const Frame frame = frame_parse(*message);
      outcome.method = frame.method;
      if (frame.has_sequence && window_.implausible(frame.sequence)) {
        // A corrupt varint that the weak 1-byte header checksum let by.
        metrics.seq_rejected.add(1);
        throw DecodeError("frame: sequence implausibly far ahead");
      }
      outcome.sequence = frame.sequence;
      outcome.has_sequence = frame.has_sequence;
      // A valid header opens its gap even if the payload fails to decode:
      // the damaged block is then NACKed like a dropped one.
      if (frame.has_sequence) window_.accept(frame.sequence);
      if (frame.has_sequence && window_.done(frame.sequence)) {
        outcome.status = FrameOutcome::Status::kDuplicate;
      } else {
        const obs::ScopedSpan span(
            tracer, frame.has_sequence ? frame.sequence : 0,
            obs::Stage::kDecode);
        const Stopwatch sw(cpu_clock);
        outcome.data = frame_decode(frame, registry_);
        const double elapsed = sw.elapsed();
        decompress_seconds_ += elapsed;
        metrics.decode_us.for_method(frame.method).record(elapsed * 1e6);
        if (frame.has_sequence) window_.deliver(frame.sequence);
        outcome.status = FrameOutcome::Status::kOk;
      }
    } catch (const Error& error) {
      // kThrow preserves the seed contract: first corrupt frame aborts the
      // drain, leaving everything behind it on the transport.
      if (config_.policy == RecoveryPolicy::kThrow) throw;
      outcome.status = FrameOutcome::Status::kCorrupt;
      outcome.error = error.what();
      // The stream resynchronizes past the damaged frame: quarantine it and
      // keep draining. Each such skip is one resync event.
      metrics.resyncs.add(1);
    }
    report.frames.push_back(std::move(outcome));
  }

  // Reassemble the intact payloads of THIS drain. Frames carrying sequence
  // numbers (v2) are ordered by sequence so a reordered wire still yields
  // the original byte stream; legacy v1 frames have only arrival order to
  // offer. Blocks recovered by later NACK rounds land in later drains —
  // cross-drain reassembly is the caller's job, keyed by
  // FrameOutcome::sequence.
  std::vector<const FrameOutcome*> intact;
  bool all_sequenced = true;
  for (const FrameOutcome& outcome : report.frames) {
    switch (outcome.status) {
      case FrameOutcome::Status::kOk:
        intact.push_back(&outcome);
        all_sequenced = all_sequenced && outcome.has_sequence;
        break;
      case FrameOutcome::Status::kCorrupt:
        ++report.frames_corrupt;
        break;
      case FrameOutcome::Status::kDuplicate:
        ++report.frames_duplicate;
        break;
    }
  }
  if (all_sequenced) {
    std::sort(intact.begin(), intact.end(),
              [](const FrameOutcome* a, const FrameOutcome* b) {
                return a->sequence < b->sequence;
              });
  }
  for (const FrameOutcome* outcome : intact) {
    const obs::ScopedSpan span(tracer, outcome->sequence,
                               obs::Stage::kDeliver);
    report.data.insert(report.data.end(), outcome->data.begin(),
                       outcome->data.end());
    report.bytes_recovered += outcome->data.size();
  }
  report.frames_ok = intact.size();
  report.gaps = window_.gaps();

  frames_ += report.frames_ok;
  frames_corrupt_ += report.frames_corrupt;
  frames_duplicate_ += report.frames_duplicate;
  bytes_recovered_ += report.bytes_recovered;
  metrics.frames_ok.add(report.frames_ok);
  metrics.frames_corrupt.add(report.frames_corrupt);
  metrics.frames_duplicate.add(report.frames_duplicate);
  metrics.bytes_recovered.add(report.bytes_recovered);
  publish_abandoned();
  return report;
}

Bytes AdaptiveReceiver::receive_available() {
  return receive_report().data;
}

std::vector<std::uint64_t> AdaptiveReceiver::take_nacks() {
  if (config_.policy != RecoveryPolicy::kNack) return {};
  std::vector<std::uint64_t> out = window_.take_nacks();
  receiver_metrics().nacks_issued.add(out.size());
  publish_abandoned();
  return out;
}

void AdaptiveReceiver::publish_abandoned() {
  // A gauge: a late copy of a given-up sequence takes it back.
  const auto now = static_cast<std::int64_t>(window_.abandoned());
  receiver_metrics().abandoned.add(now - abandoned_published_);
  abandoned_published_ = now;
}

}  // namespace acex::adaptive
