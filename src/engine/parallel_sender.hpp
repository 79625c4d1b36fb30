#pragma once

#include <utility>

#include "adaptive/pipeline.hpp"
#include "transport/transport.hpp"

namespace acex::engine {

/// Former name of the multi-core sender, kept as a thin forwarding class
/// for code written against it. AdaptiveSender::send_all/send_all_fixed
/// are the one stream driver now and size their own worker pool from
/// AdaptiveConfig::worker_threads (DESIGN.md §8); this class adds nothing.
class ParallelSender {
 public:
  explicit ParallelSender(transport::Transport& transport,
                          adaptive::AdaptiveConfig config = {})
      : sender_(transport, std::move(config)) {}

  adaptive::StreamReport send_all(ByteView data) {
    return sender_.send_all(data);
  }
  adaptive::StreamReport send_all_fixed(ByteView data, MethodId method) {
    return sender_.send_all_fixed(data, method);
  }

  adaptive::AdaptiveSender& sender() noexcept { return sender_; }
  const adaptive::AdaptiveSender& sender() const noexcept { return sender_; }

  std::size_t worker_count() const noexcept { return sender_.worker_count(); }

 private:
  adaptive::AdaptiveSender sender_;
};

}  // namespace acex::engine
