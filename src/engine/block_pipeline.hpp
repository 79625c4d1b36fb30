#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>

#include "engine/reorder_window.hpp"
#include "engine/thread_pool.hpp"

namespace acex::engine {

/// Fans independent per-block jobs out to a ThreadPool and hands their
/// results back to one consumer in submission order: the heart of the
/// parallel compression engine (DESIGN.md §8).
///
/// submit() tags each job with the next sequence number and enqueues it;
/// workers run jobs concurrently and park each result in a bounded
/// ReorderWindow; collect()/try_collect() drain results strictly in
/// sequence order. Total buffering is bounded by the window capacity —
/// when worker completions run ahead of the consumer, producers block
/// (backpressure) instead of accumulating results.
///
/// Deadlock freedom: the pool dispatches FIFO and submit() is called in
/// sequence order, so the job for the lowest in-flight sequence is always
/// running (never stuck behind higher sequences), and its push is by
/// definition inside the window — the head the consumer is waiting on
/// always arrives. A single-threaded driver must still drain results while
/// submitting (collect() once `in_flight()` reaches `window_capacity()`),
/// because a full window can only drain through that same thread.
///
/// Without a pool, submit() runs each job inline on the calling thread:
/// the same submit/collect loop then degenerates to job(i) → collect(i)
/// → job(i+1), which is how the 1-worker sender stays the serial path.
///
/// Jobs must not throw (see ThreadPool); carry failures inside `T`. An
/// inline job that throws anyway propagates out of submit() and is not
/// counted as submitted.
///
/// One consumer thread at a time; submit() and collect() may be the same
/// thread (the usual driver-loop shape) or two different ones.
template <typename T>
class ParallelBlockPipeline {
 public:
  using Job = std::function<T()>;

  /// `window_capacity` bounds completed-but-undelivered results; keep it
  /// at least the pool's worker count or workers will sit idle waiting for
  /// window slots. A null `pool` runs every job inline in submit().
  ParallelBlockPipeline(ThreadPool* pool, std::size_t window_capacity)
      : pool_(pool), window_(window_capacity) {}

  /// Pipelines drain on destruction: any job still queued or running is
  /// finished (its result discarded), so jobs may safely reference state
  /// that outlives the pipeline object itself.
  ~ParallelBlockPipeline() {
    window_.close();
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return completed_ == submitted_; });
  }

  ParallelBlockPipeline(const ParallelBlockPipeline&) = delete;
  ParallelBlockPipeline& operator=(const ParallelBlockPipeline&) = delete;

  /// Enqueue the encode job for the next sequence; returns that sequence.
  /// Blocks while the pool's task queue is full.
  std::uint64_t submit(Job job) {
    if (pool_ == nullptr) {
      T value = job();
      std::unique_lock<std::mutex> lock(mutex_);
      const std::uint64_t sequence = submitted_++;
      ++completed_;
      lock.unlock();
      window_.push(sequence, std::move(value));
      return sequence;
    }
    std::uint64_t sequence;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sequence = submitted_++;
    }
    pool_->submit([this, sequence, job = std::move(job)]() mutable {
      window_.push(sequence, job());
      std::lock_guard<std::mutex> lock(mutex_);
      ++completed_;
      all_done_.notify_all();
    });
    return sequence;
  }

  /// Next result in sequence order; blocks until it is ready. Call only
  /// when `in_flight() > 0`.
  T collect() {
    T value = window_.pop();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++collected_;
    }
    return value;
  }

  /// Non-blocking collect; true when the next-in-order result was ready.
  bool try_collect(T& out) {
    if (!window_.try_pop(out)) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    ++collected_;
    return true;
  }

  /// Jobs submitted but not yet collected (queued, running, or buffered).
  std::size_t in_flight() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(submitted_ - collected_);
  }

  std::uint64_t submitted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return submitted_;
  }

  std::size_t window_capacity() const noexcept { return window_.capacity(); }

 private:
  ThreadPool* pool_;  ///< null = run jobs inline
  ReorderWindow<T> window_;
  mutable std::mutex mutex_;
  std::condition_variable all_done_;
  std::uint64_t submitted_ = 0;
  std::uint64_t collected_ = 0;
  std::uint64_t completed_ = 0;  ///< worker-side: result pushed (or dropped)
};

}  // namespace acex::engine
