#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <set>

#include "transport/transport.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace acex::broker {

/// What the broker does when a subscriber's egress queue is full — the
/// slow-consumer contract (DESIGN.md §11). The policy is the whole reason
/// the queue exists: without it, one stalled subscriber would backpressure
/// the publisher and starve every healthy subscriber behind the same
/// publish loop.
enum class SlowConsumerPolicy {
  /// Publisher blocks until the pump drains a slot. Lossless, but a dead
  /// consumer stalls the publish — only safe when every subscriber is
  /// actively pumped. With a nonzero block_timeout the wait is bounded
  /// and a wedged consumer surfaces as EgressTimeout instead of pinning
  /// the publisher thread forever.
  kBlock,
  /// Evict the oldest queued frame to admit the new one. The subscriber's
  /// receiver sees a sequence gap and recovers through its NACK path; the
  /// publisher never waits.
  kDropOldest,
  /// Close the queue and fail the subscriber: the publish throws IoError
  /// for THIS subscriber only, and the broker marks it disconnected.
  kDisconnect,
};

/// Typed outcome of a kBlock send that waited out its deadline. The frame
/// was NOT enqueued, but the queue stays open: the receiver recovers the
/// missing sequence through its NACK path, so a timeout is recoverable
/// loss — unlike the IoError thrown for a closed queue, which is fatal to
/// the subscriber.
class EgressTimeout : public IoError {
 public:
  explicit EgressTimeout(const std::string& what) : IoError(what) {}
};

/// Bounded, thread-safe frame queue standing between one subscriber's
/// AdaptiveSender (producer: the broker's publish loop) and its real
/// transport (consumer: the delivery pump). Implements Transport so the
/// sender writes to it unchanged; receive_buffer() hands frames to the
/// pump, which forwards them downstream and times the REAL transfer.
///
/// The queue's own accept time is meaningless as a bandwidth signal —
/// which is why broker senders run with
/// AdaptiveConfig::external_bandwidth_feedback and the pump reports
/// measured link transfers via AdaptiveSender::record_bandwidth().
class EgressQueue final : public transport::Transport {
 public:
  /// `clock` must outlive the queue; it is the downstream transport's
  /// clock, forwarded so sender-side timing stays on the link's timeline.
  /// `block_timeout` bounds a kBlock wait in REAL (wall-clock) seconds —
  /// the stored clock may be virtual, and a publisher stuck on a
  /// condition_variable can only be freed by real time or a wakeup;
  /// 0 preserves the wait-forever seed behaviour.
  EgressQueue(std::size_t capacity, SlowConsumerPolicy policy,
              const Clock& clock, Seconds block_timeout = 0);

  /// Enqueue one frame, applying the slow-consumer policy when full.
  /// Throws IoError once the queue is closed (disconnect semantics) — a
  /// publisher blocked under kBlock is woken and thrown out by close().
  /// Throws EgressTimeout when a bounded kBlock wait expires.
  void send(ByteView message) override;

  /// Zero-copy enqueue: the queue RETAINS the view (sharing its backing
  /// buffer) instead of copying. This is how one shared-encode frame fans
  /// out to N subscribers' queues at the cost of one buffer.
  void send_buffer(const BufferView& message) override;

  /// Non-blocking pop of the oldest frame as a copy; std::nullopt when
  /// empty (or closed and drained).
  std::optional<Bytes> receive() override;

  /// Non-blocking zero-copy pop: hands back the retained view, owner
  /// intact, so the pump can forward it downstream without a copy.
  std::optional<BufferView> receive_buffer() override;

  const Clock& clock() const override { return *clock_; }

  /// Close the queue: wakes any blocked sender with IoError, drops queued
  /// frames, and makes every later send() fail. Idempotent. Called on
  /// unsubscribe so an in-flight publish can never deadlock on a
  /// subscriber that no longer exists.
  void close();

  /// Drop every queued frame without closing — a session resume clears
  /// stale frames before replaying the gap from the retransmit ring.
  /// The cleared frames do not count as drops (they are about to be
  /// replayed, not lost). Returns how many were cleared.
  std::size_t clear();

  /// While shed mode is on, a full queue behaves as kDropOldest no matter
  /// the configured policy, and any publisher blocked under kBlock is
  /// woken to drop-and-proceed. The overload ladder and session parking
  /// use this so a publisher can never wedge on a queue nobody pumps.
  void set_shed_mode(bool on);
  bool shed_mode() const;

  bool closed() const;
  std::size_t depth() const;
  /// Share-aware accounting: queued bytes whose backing buffer is not
  /// already in `seen` (registering each as a side effect). The broker
  /// threads one set through all queues + rings so a frame shared by N
  /// subscribers charges the memory budget once (DESIGN.md §16).
  std::size_t bytes_unique(std::set<const void*>& seen) const;
  std::size_t capacity() const noexcept { return capacity_; }
  SlowConsumerPolicy policy() const noexcept { return policy_; }
  Seconds block_timeout() const noexcept { return block_timeout_; }

  /// Frames evicted under kDropOldest (or shed mode) since construction.
  std::uint64_t drops() const;
  /// Frames accepted (enqueued) since construction.
  std::uint64_t accepted() const;
  /// kBlock sends that waited out their deadline since construction.
  std::uint64_t timeouts() const;

 private:
  void drop_front_locked();

  const std::size_t capacity_;
  const SlowConsumerPolicy policy_;
  const Clock* clock_;
  const Seconds block_timeout_;

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::deque<BufferView> frames_;
  std::uint64_t drops_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t timeouts_ = 0;
  bool closed_ = false;
  bool shed_mode_ = false;
};

}  // namespace acex::broker
