#include "broker/egress_queue.hpp"

#include <chrono>

namespace acex::broker {

EgressQueue::EgressQueue(std::size_t capacity, SlowConsumerPolicy policy,
                         const Clock& clock, Seconds block_timeout)
    : capacity_(capacity == 0 ? 1 : capacity), policy_(policy),
      clock_(&clock), block_timeout_(block_timeout < 0 ? 0 : block_timeout) {}

void EgressQueue::drop_front_locked() {
  frames_.pop_front();
  ++drops_;
}

void EgressQueue::send(ByteView message) {
  // The caller's span may die at return: take an owned copy.
  send_buffer(BufferView::copy(message));
}

void EgressQueue::send_buffer(const BufferView& message) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) throw IoError("egress queue closed");

  if (frames_.size() >= capacity_) {
    const SlowConsumerPolicy effective =
        shed_mode_ ? SlowConsumerPolicy::kDropOldest : policy_;
    switch (effective) {
      case SlowConsumerPolicy::kBlock: {
        const auto ready = [this] {
          return closed_ || shed_mode_ || frames_.size() < capacity_;
        };
        if (block_timeout_ > 0) {
          if (!not_full_.wait_for(
                  lock, std::chrono::duration<double>(block_timeout_),
                  ready)) {
            // The frame is lost here, not the subscriber: the receiver
            // NACKs the gap and the sender's retransmit ring answers.
            ++timeouts_;
            throw EgressTimeout("egress queue send timed out");
          }
        } else {
          not_full_.wait(lock, ready);
        }
        if (closed_) throw IoError("egress queue closed");
        while (shed_mode_ && frames_.size() >= capacity_) drop_front_locked();
        break;
      }
      case SlowConsumerPolicy::kDropOldest:
        // The receiver sees the evicted sequence as a gap and asks for it
        // back through its NACK path — loss here is recoverable loss.
        while (frames_.size() >= capacity_) drop_front_locked();
        break;
      case SlowConsumerPolicy::kDisconnect:
        closed_ = true;
        frames_.clear();
        not_full_.notify_all();
        throw IoError("egress queue overflow: slow consumer disconnected");
    }
  }

  // Retain the view — sharing the backing buffer with every other holder
  // (sibling queues, retransmit rings, the shm slab ring).
  frames_.push_back(message);
  ++accepted_;
}

std::optional<Bytes> EgressQueue::receive() {
  std::optional<BufferView> frame = receive_buffer();
  if (!frame) return std::nullopt;
  return frame->to_bytes();
}

std::optional<BufferView> EgressQueue::receive_buffer() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (frames_.empty()) return std::nullopt;
  BufferView frame = std::move(frames_.front());
  frames_.pop_front();
  not_full_.notify_one();
  return frame;
}

void EgressQueue::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  frames_.clear();
  not_full_.notify_all();
}

std::size_t EgressQueue::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t cleared = frames_.size();
  frames_.clear();
  not_full_.notify_all();
  return cleared;
}

void EgressQueue::set_shed_mode(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  shed_mode_ = on;
  if (on) not_full_.notify_all();
}

bool EgressQueue::shed_mode() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_mode_;
}

bool EgressQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t EgressQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_.size();
}

std::size_t EgressQueue::bytes_unique(std::set<const void*>& seen) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const BufferView& frame : frames_) {
    const void* key = frame.owner_key();
    if (key != nullptr && !seen.insert(key).second) continue;
    total += frame.size();
  }
  return total;
}

std::uint64_t EgressQueue::drops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return drops_;
}

std::uint64_t EgressQueue::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

std::uint64_t EgressQueue::timeouts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return timeouts_;
}

}  // namespace acex::broker
