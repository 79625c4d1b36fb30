#include "broker/broker.hpp"

#include <atomic>
#include <utility>

#include "engine/block_pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace acex::broker {
namespace {

/// Broker-wide obs instruments, resolved once (handle caching). The
/// ground-truth BrokerStats/SubscriberStats structs are authoritative;
/// these mirror them so exporters and acexstat --broker can cross-check.
struct BrokerMetrics {
  obs::Counter& blocks;
  obs::Counter& samples;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Gauge& subscribers;
  obs::Gauge& groups;
  obs::Gauge& egress_depth;
};

BrokerMetrics& broker_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static BrokerMetrics metrics{
      reg.counter("acex.broker.blocks"),
      reg.counter("acex.broker.samples"),
      reg.counter("acex.broker.encode_cache.hits"),
      reg.counter("acex.broker.encode_cache.misses"),
      reg.gauge("acex.broker.subscribers"),
      reg.gauge("acex.broker.groups"),
      reg.gauge("acex.broker.egress.depth"),
  };
  return metrics;
}

}  // namespace

/// Everything one subscriber owns. `sender_mutex` guards the AdaptiveSender
/// (whose estimators and retransmit ring are not thread-safe); the egress
/// queue synchronizes itself. Stats live behind their OWN mutex because a
/// publish blocked in a full kBlock queue holds sender_mutex for the whole
/// wait — stats queries (the pump loop's progress check) must not deadlock
/// against it, and the pump itself only ever try-locks it (see
/// banked_bw_mutex below). sender_mutex and stats_mutex are never nested;
/// banked_bw_mutex is a leaf that nests only inside sender_mutex. Held by
/// shared_ptr so an in-flight publish survives a concurrent unsubscribe.
struct FanoutBroker::Subscriber {
  SubscriberId id = 0;
  SubscriberConfig config;
  /// Atomic because resume() swaps in the reconnected peer's transport
  /// while a concurrent pump may be reading it for another subscriber's
  /// loop iteration; each pump iteration loads it once.
  std::atomic<transport::Transport*> downstream{nullptr};
  /// Parked: liveness lost, state kept warm; pumps skip it, publishes keep
  /// feeding its (shed-mode) egress so the sequence cursor tracks the
  /// stream head.
  std::atomic<bool> parked{false};
  std::unique_ptr<EgressQueue> queue;
  std::unique_ptr<adaptive::AdaptiveSender> sender;

  mutable std::mutex sender_mutex;
  mutable std::mutex stats_mutex;
  SubscriberStats stats;

  /// Bandwidth samples the pump could not report without blocking. A
  /// publisher parked in this subscriber's full kBlock egress cv-waits
  /// *holding* sender_mutex, and it only wakes when the pump pops another
  /// frame — so the pump must never block on sender_mutex between pops, or
  /// the pair deadlocks (pump waits for the mutex, publisher waits for the
  /// pump). Samples that lose the try-lock are banked here and folded into
  /// the next record_bandwidth that does land. Leaf mutex: taken nowhere
  /// else, nests only inside sender_mutex.
  mutable std::mutex banked_bw_mutex;
  std::size_t banked_bw_bytes = 0;
  Seconds banked_bw_elapsed = 0.0;

  obs::Counter* frames_counter = nullptr;
  obs::Counter* drops_counter = nullptr;
  obs::Counter* fallbacks_counter = nullptr;

  bool is_disconnected() const {
    std::lock_guard<std::mutex> lock(stats_mutex);
    return stats.disconnected;
  }
  void mark_disconnected() {
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats.disconnected = true;
  }
};

FanoutBroker::FanoutBroker(BrokerConfig config)
    : config_(config),
      sampler_(config.sample_prefix == 0 ? 4 * 1024 : config.sample_prefix) {
  if (config_.worker_threads != 1) {
    pool_ = std::make_unique<engine::ThreadPool>(config_.worker_threads,
                                                 config_.queue_capacity);
  }
}

FanoutBroker::~FanoutBroker() {
  // Close every egress first: a publisher blocked in a kBlock queue must
  // be gone before members (including the encode pool) are torn down.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, sub] : subscribers_) sub->queue->close();
}

SubscriberId FanoutBroker::subscribe(transport::Transport& transport,
                                     SubscriberConfig config) {
  auto sub = std::make_shared<Subscriber>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sub->id = next_id_++;
  }
  if (config.name.empty()) config.name = "sub-" + std::to_string(sub->id);
  // The broker owns the sampling and the bandwidth measurement point;
  // per-subscriber settings for either would be silently wrong.
  config.adaptive.external_bandwidth_feedback = true;
  config.adaptive.async_sampling = false;

  sub->config = config;
  sub->downstream.store(&transport);
  sub->queue = std::make_unique<EgressQueue>(config.egress_capacity,
                                             config.policy, transport.clock(),
                                             config.block_timeout);
  sub->sender =
      std::make_unique<adaptive::AdaptiveSender>(*sub->queue, config.adaptive);

  auto& reg = obs::MetricsRegistry::global();
  sub->frames_counter =
      &reg.counter("acex.broker.sub.frames", "subscriber", config.name);
  sub->drops_counter =
      &reg.counter("acex.broker.sub.drops", "subscriber", config.name);
  sub->fallbacks_counter =
      &reg.counter("acex.broker.sub.fallbacks", "subscriber", config.name);

  const SubscriberId id = sub->id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    subscribers_.emplace(id, std::move(sub));
  }
  broker_metrics().subscribers.add(1);
  return id;
}

bool FanoutBroker::unsubscribe(SubscriberId id) {
  SubscriberPtr sub;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = subscribers_.find(id);
    if (it == subscribers_.end()) return false;
    sub = std::move(it->second);
    subscribers_.erase(it);
  }
  // Wake any publish blocked on this queue (it absorbs the IoError as a
  // disconnect of this subscriber only) and drop queued frames.
  sub->queue->close();
  broker_metrics().subscribers.sub(1);
  return true;
}

void FanoutBroker::publish(ByteView block) {
  // Serialized: each subscriber's finish_block must run in the same order
  // its sequences were planned.
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  // Shared encodes read the registry from worker threads; freeze it at the
  // first publish so the concurrency contract (frozen => concurrent reads
  // safe) holds from here on. Application codecs register before this.
  registry_.freeze();
  auto& metrics = broker_metrics();

  std::vector<SubscriberPtr> subs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    subs.reserve(subscribers_.size());
    for (const auto& [id, sub] : subscribers_) subs.push_back(sub);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.blocks;
  }
  metrics.blocks.add();
  if (subs.empty()) {
    metrics.groups.set(0);
    return;
  }

  // Subscribers may carry different block sizes (the acexd handshake
  // honours each client's negotiated granularity): re-chunk the publish
  // per distinct size so no sender ever plans a block beyond its
  // configured block_size — the same split a private
  // AdaptiveSender::send_all would make, which is what keeps per-
  // subscriber wire identity. Every subscriber whose block_size covers
  // the whole publish shares one full-size chunk, so the common case
  // (uniform sizes) stays on the single shared-encode pass.
  std::map<std::size_t, std::vector<SubscriberPtr>> by_chunk;
  for (auto& sub : subs) {
    std::size_t cap = sub->config.adaptive.decision.block_size;
    if (cap == 0 || cap > block.size()) cap = block.size();
    by_chunk[cap].push_back(std::move(sub));
  }
  // The sampled ratio is a property of the data, not of any subscriber's
  // link, and a sample reads only the chunk's prefix: chunks that start
  // at the same offset and cover the same prefix share one sample, so
  // sizes 16/8/16/4 KiB cost 4 samples per 16 KiB publish, not 7.
  std::map<std::pair<std::size_t, std::size_t>, adaptive::SampleResult>
      samples;  // (offset, sampled bytes) -> sample
  for (auto& [chunk_size, group] : by_chunk) {
    std::size_t off = 0;
    do {  // at least once: an empty publish still reaches its subscribers
      const ByteView chunk(block.data() + off,
                           std::min(chunk_size, block.size() - off));
      const std::pair key{off, std::min(sampler_.prefix_size(), chunk.size())};
      auto it = samples.find(key);
      if (it == samples.end()) {
        it = samples.emplace(key, sampler_.sample(chunk)).first;
      }
      publish_chunk(chunk, it->second, group);
      off += chunk_size;
    } while (off < block.size());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.samples += samples.size();
  }
  metrics.samples.add(samples.size());
}

void FanoutBroker::publish_chunk(ByteView block,
                                 const adaptive::SampleResult& sample,
                                 const std::vector<SubscriberPtr>& subs) {
  auto& metrics = broker_metrics();

  struct Planned {
    SubscriberPtr sub;
    adaptive::BlockPlan plan;
  };
  std::vector<Planned> planned;
  planned.reserve(subs.size());
  for (const auto& sub : subs) {
    if (sub->is_disconnected()) continue;
    std::lock_guard<std::mutex> lock(sub->sender_mutex);
    planned.push_back({sub, sub->sender->plan_block_sampled(block, sample)});
  }
  if (planned.empty()) {
    metrics.groups.set(0);
    return;
  }

  // Group subscribers by what must actually be encoded. The slack joins
  // the method in the key because it decides the expansion verdict — two
  // subscribers that agree on the method but not the slack could demand
  // different payloads. In practice slacks match and groups == methods.
  using GroupKey = std::pair<MethodId, std::size_t>;
  const auto key_of = [](const Planned& p) {
    return GroupKey{p.plan.method,
                    p.sub->config.adaptive.expansion_slack_bytes};
  };
  std::map<GroupKey, adaptive::PayloadEncode> groups;
  for (const auto& p : planned) groups.emplace(key_of(p), adaptive::PayloadEncode{});

  // Encode once per group — on the pool when there is more than one group,
  // inline otherwise. The window holds every group, so all jobs go in
  // before the first collect. encode_payload never throws with degradation
  // allowed (pool contract).
  {
    engine::ParallelBlockPipeline<adaptive::PayloadEncode> pipeline(
        groups.size() > 1 ? pool_.get() : nullptr, groups.size());
    for (const auto& entry : groups) {
      pipeline.submit([this, block, key = entry.first] {
        const obs::ScopedSpan span(obs::BlockTracer::global(), 0,
                                   obs::Stage::kEncode, obs::current_worker());
        return adaptive::encode_payload(registry_, block, key.first,
                                        key.second);
      });
    }
    for (auto& entry : groups) entry.second = pipeline.collect();
  }

  double encode_cpu = 0;
  for (const auto& [key, enc] : groups) encode_cpu += enc.encode_seconds;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.encodes += groups.size();
    stats_.cache_misses += groups.size();
    stats_.cache_hits += planned.size() - groups.size();
    stats_.last_groups = groups.size();
    stats_.encode_seconds += encode_cpu;
  }
  metrics.cache_misses.add(groups.size());
  metrics.cache_hits.add(planned.size() - groups.size());
  metrics.groups.set(static_cast<std::int64_t>(groups.size()));

  // Frame per (group, sequence) over the shared payload and finish per
  // subscriber. Subscribers in one group whose cursors agree (the steady
  // fan-out case: everyone subscribed before the first publish) produce
  // byte-identical frames, so ONE buffer — heap block or shm slab via
  // config_.frame_builder — is built and every such subscriber's egress
  // and retransmit ring retain views of it. The CRC is of the original
  // block — also shared.
  const std::uint32_t crc = crc32(block);
  std::map<std::pair<GroupKey, std::uint64_t>, BufferView> frame_cache;
  std::int64_t depth_sum = 0;
  for (auto& p : planned) {
    const adaptive::PayloadEncode& enc = groups.at(key_of(p));
    BufferView& cached = frame_cache[{key_of(p), p.plan.sequence}];
    if (cached.empty()) {
      cached = config_.frame_builder
                   ? config_.frame_builder(enc.method, enc.payload, crc,
                                           p.plan.sequence)
                   : BufferView::own(frame_build_seq(enc.method, enc.payload,
                                                     crc, p.plan.sequence));
    }
    adaptive::EncodeResult encoded;
    encoded.framed = cached;  // shares the backing buffer, no copy
    encoded.method = enc.method;
    encoded.fallback = enc.fallback;
    encoded.threw = enc.threw;
    encoded.encode_seconds = enc.encode_seconds;
    const std::size_t framed_size = encoded.framed.size();

    if (p.sub->is_disconnected()) continue;
    bool finished = true;
    bool timed_out = false;
    {
      std::lock_guard<std::mutex> lock(p.sub->sender_mutex);
      try {
        p.sub->sender->finish_block(p.plan, block.size(), std::move(encoded));
      } catch (const EgressTimeout&) {
        // A wedged consumer may not pin the publish: the frame is dropped
        // recoverably (its sequence resurfaces through the NACK path) and
        // the subscriber stays connected.
        finished = false;
        timed_out = true;
      } catch (const IoError&) {
        // Egress closed (unsubscribe race) or overflowed under
        // kDisconnect: this subscriber is done, the others untouched.
        finished = false;
      }
    }
    if (timed_out) {
      std::lock_guard<std::mutex> lock(p.sub->stats_mutex);
      ++p.sub->stats.egress_timeouts;
    } else if (!finished) {
      p.sub->mark_disconnected();
    } else {
      std::lock_guard<std::mutex> lock(p.sub->stats_mutex);
      ++p.sub->stats.frames;
      p.sub->stats.bytes += framed_size;
      p.sub->frames_counter->add();
      if (enc.fallback) {
        ++p.sub->stats.fallbacks;
        p.sub->fallbacks_counter->add();
      }
      const std::uint64_t queue_drops = p.sub->queue->drops();
      if (queue_drops > p.sub->stats.drops) {
        p.sub->drops_counter->add(queue_drops - p.sub->stats.drops);
        p.sub->stats.drops = queue_drops;
      }
    }
    depth_sum += static_cast<std::int64_t>(p.sub->queue->depth());
  }
  metrics.egress_depth.set(depth_sum);
}

std::size_t FanoutBroker::pump(SubscriberId id, std::size_t max_frames) {
  const SubscriberPtr sub = find(id);
  if (!sub) return 0;
  return pump_locked_free(sub, max_frames);
}

std::size_t FanoutBroker::pump_all() {
  std::vector<SubscriberPtr> subs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    subs.reserve(subscribers_.size());
    for (const auto& [id, sub] : subscribers_) subs.push_back(sub);
  }
  std::size_t delivered = 0;
  for (const auto& sub : subs) {
    delivered +=
        pump_locked_free(sub, std::numeric_limits<std::size_t>::max());
  }
  return delivered;
}

std::size_t FanoutBroker::pump_locked_free(const SubscriberPtr& sub,
                                           std::size_t max_frames) {
  std::size_t delivered = 0;
  while (delivered < max_frames) {
    // Parked subscribers have no peer to pump to; their frames wait in
    // the shed-mode egress for resume() to sort out.
    if (sub->parked.load()) break;
    std::optional<BufferView> frame = sub->queue->try_pop_buffer();
    if (!frame) break;
    transport::Transport* downstream = sub->downstream.load();
    // Time the REAL link transfer on the transport's clock — this is the
    // bandwidth signal external_bandwidth_feedback redirected here.
    const Clock& clock = downstream->clock();
    const Seconds start = clock.now();
    try {
      // Zero-copy handoff: a downstream that can exploit shared ownership
      // (the shm endpoint shipping a slab descriptor) gets the view; every
      // other transport sees plain send() bytes via the default.
      downstream->send_buffer(*frame);
    } catch (const IoError&) {
      sub->mark_disconnected();
      sub->queue->close();
      break;
    }
    const Seconds elapsed = clock.now() - start;
    {
      // try_to_lock, never lock: a publisher cv-waiting in this
      // subscriber's full kBlock egress holds sender_mutex across the
      // wait, and only this loop's next pop can wake it. Blocking here
      // hands the race a deadlock; bank the sample instead.
      std::unique_lock<std::mutex> lock(sub->sender_mutex,
                                        std::try_to_lock);
      if (lock.owns_lock()) {
        std::size_t bytes = frame->size();
        Seconds total = elapsed;
        {
          std::lock_guard<std::mutex> banked(sub->banked_bw_mutex);
          bytes += sub->banked_bw_bytes;
          total += sub->banked_bw_elapsed;
          sub->banked_bw_bytes = 0;
          sub->banked_bw_elapsed = 0.0;
        }
        sub->sender->record_bandwidth(bytes, total);
      } else {
        std::lock_guard<std::mutex> banked(sub->banked_bw_mutex);
        sub->banked_bw_bytes += frame->size();
        sub->banked_bw_elapsed += elapsed;
      }
    }
    {
      std::lock_guard<std::mutex> lock(sub->stats_mutex);
      ++sub->stats.delivered;
    }
    ++delivered;
  }
  return delivered;
}

std::size_t FanoutBroker::retransmit(
    SubscriberId id, const std::vector<std::uint64_t>& sequences) {
  const SubscriberPtr sub = find(id);
  if (!sub || sub->is_disconnected()) return 0;
  std::size_t resent = 0;
  try {
    std::lock_guard<std::mutex> lock(sub->sender_mutex);
    resent = sub->sender->retransmit(sequences);
  } catch (const IoError&) {
    sub->mark_disconnected();
    return 0;
  }
  std::lock_guard<std::mutex> lock(sub->stats_mutex);
  sub->stats.retransmits += resent;
  return resent;
}

bool FanoutBroker::park(SubscriberId id) {
  const SubscriberPtr sub = find(id);
  if (!sub) return false;
  sub->parked.store(true);
  // Shed mode before anything else: a publish blocked on this queue under
  // kBlock must wake and drop-and-proceed, or the whole fan-out stalls on
  // a peer that just died.
  sub->queue->set_shed_mode(true);
  return true;
}

BrokerResume FanoutBroker::resume(SubscriberId id,
                                  transport::Transport& transport,
                                  std::uint64_t resume_from) {
  const SubscriberPtr sub = find(id);
  if (!sub || sub->is_disconnected()) return {};
  std::lock_guard<std::mutex> lock(sub->sender_mutex);
  const std::uint64_t head = sub->sender->next_sequence();
  if (resume_from > head) return {};  // a cursor from some other stream
  // Frames queued while parked are stale paths to the dead transport's
  // pacing; the replay below re-sends everything from resume_from anyway,
  // so clear first — otherwise the queue would hold duplicates.
  sub->queue->clear();
  const std::optional<std::size_t> replayed =
      sub->sender->replay_range(resume_from, head);
  if (!replayed) return {};  // gap evicted: stays parked, caller restarts
  sub->downstream.store(&transport);
  sub->parked.store(false);
  sub->queue->set_shed_mode(false);
  return {true, *replayed};
}

bool FanoutBroker::parked(SubscriberId id) const {
  const SubscriberPtr sub = find(id);
  return sub && sub->parked.load();
}

void FanoutBroker::set_shed(SubscriberId id, bool on) {
  const SubscriberPtr sub = find(id);
  if (!sub) return;
  // A parked subscriber's egress must stay shed no matter what the ladder
  // does; parking owns the flag until resume.
  if (sub->parked.load() && !on) return;
  sub->queue->set_shed_mode(on);
}

SubscriberMemory FanoutBroker::memory_usage(SubscriberId id) const {
  const SubscriberPtr sub = find(id);
  if (!sub) {
    throw ConfigError("broker: unknown subscriber id " + std::to_string(id));
  }
  SubscriberMemory mem;
  mem.egress_bytes = sub->queue->bytes();
  {
    std::lock_guard<std::mutex> lock(sub->sender_mutex);
    mem.ring_bytes = sub->sender->retransmit_ring().bytes();
  }
  return mem;
}

std::size_t FanoutBroker::memory_usage_total() const {
  std::vector<SubscriberPtr> subs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    subs.reserve(subscribers_.size());
    for (const auto& [id, sub] : subscribers_) subs.push_back(sub);
  }
  std::size_t total = 0;
  for (const auto& sub : subs) {
    total += sub->queue->bytes();
    std::lock_guard<std::mutex> lock(sub->sender_mutex);
    total += sub->sender->retransmit_ring().bytes();
  }
  return total;
}

std::size_t FanoutBroker::memory_usage_unique() const {
  std::vector<SubscriberPtr> subs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    subs.reserve(subscribers_.size());
    for (const auto& [id, sub] : subscribers_) subs.push_back(sub);
  }
  // One seen-set threaded through every queue AND every ring: a shared-
  // encode frame held by all of them still counts once process-wide.
  std::set<const void*> seen;
  std::size_t total = 0;
  for (const auto& sub : subs) {
    total += sub->queue->bytes_unique(seen);
    std::lock_guard<std::mutex> lock(sub->sender_mutex);
    total += sub->sender->retransmit_ring().bytes_unique(seen);
  }
  return total;
}

echo::SubscriberId FanoutBroker::attach(echo::EventChannel& channel) {
  return channel.subscribe([this](const echo::Event& event) {
    publish(ByteView(event.payload.data(), event.payload.size()));
  });
}

void FanoutBroker::detach(echo::EventChannel& channel,
                          echo::SubscriberId id) noexcept {
  channel.unsubscribe(id);
}

SubscriberStats FanoutBroker::subscriber_stats(SubscriberId id) const {
  const SubscriberPtr sub = find(id);
  if (!sub) {
    throw ConfigError("broker: unknown subscriber id " + std::to_string(id));
  }
  std::lock_guard<std::mutex> lock(sub->stats_mutex);
  return sub->stats;
}

adaptive::DegradationStats FanoutBroker::degradation(SubscriberId id) const {
  const SubscriberPtr sub = find(id);
  if (!sub) {
    throw ConfigError("broker: unknown subscriber id " + std::to_string(id));
  }
  std::lock_guard<std::mutex> lock(sub->sender_mutex);
  return sub->sender->degradation();
}

BrokerStats FanoutBroker::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::size_t FanoutBroker::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return subscribers_.size();
}

std::size_t FanoutBroker::egress_depth(SubscriberId id) const {
  const SubscriberPtr sub = find(id);
  if (!sub) {
    throw ConfigError("broker: unknown subscriber id " + std::to_string(id));
  }
  return sub->queue->depth();
}

bool FanoutBroker::disconnected(SubscriberId id) const {
  const SubscriberPtr sub = find(id);
  if (!sub) {
    throw ConfigError("broker: unknown subscriber id " + std::to_string(id));
  }
  return sub->is_disconnected();
}

FanoutBroker::SubscriberPtr FanoutBroker::find(SubscriberId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = subscribers_.find(id);
  return it == subscribers_.end() ? nullptr : it->second;
}

}  // namespace acex::broker
