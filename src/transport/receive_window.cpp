#include "transport/receive_window.hpp"

#include "util/error.hpp"

namespace acex::transport {

ReceiveWindow::ReceiveWindow(int nack_retry_cap, std::uint64_t gap_window)
    : nack_retry_cap_(nack_retry_cap), gap_window_(gap_window) {
  if (nack_retry_cap <= 0 || gap_window == 0) {
    throw ConfigError(
        "receive window: nack_retry_cap and gap_window must be positive");
  }
}

void ReceiveWindow::accept(std::uint64_t seq) {
  if (seq < horizon_) return;
  horizon_ = seq + 1;
  while (next_ < seq && seq - next_ >= gap_window_ / 2) settle(next_);
}

void ReceiveWindow::deliver(std::uint64_t seq) {
  given_up_.erase(seq);
  if (seq > next_) ahead_.insert(seq);
  if (seq != next_) return;
  // Advance past seq and the out-of-order run it completes.
  for (++next_; !ahead_.empty() && *ahead_.begin() == next_; ++next_) {
    ahead_.erase(ahead_.begin());
  }
}

void ReceiveWindow::settle(std::uint64_t seq) {
  ++settled_;
  if (given_up_.erase(seq) == 0) ++outrun_;
  deliver(seq);
}

std::vector<std::uint64_t> ReceiveWindow::gaps() const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t seq = next_; seq < horizon_; ++seq) {
    if (!done(seq) && given_up_.count(seq) == 0) out.push_back(seq);
  }
  return out;
}

std::vector<std::uint64_t> ReceiveWindow::take_nacks() {
  // Attempt records below the cursor are done with; dropping them keeps
  // the map bounded by the window.
  nack_attempts_.erase(nack_attempts_.begin(),
                       nack_attempts_.lower_bound(next_));
  std::vector<std::uint64_t> request;
  for (const std::uint64_t seq : gaps()) {
    if (nack_attempts_[seq]++ < nack_retry_cap_) {
      request.push_back(seq);
    } else {
      given_up_.insert(seq);  // no more NACKs; a late copy still counts
    }
  }
  return request;
}

}  // namespace acex::transport
