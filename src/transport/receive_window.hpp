#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace acex::transport {

/// The receive-side twin of RetransmitRing: which sequences of a stream
/// are delivered, missing, or to NACK, for adaptive::AdaptiveReceiver and
/// echo::ChannelReceiver (each decides when a sequence may be accepted).
/// A missing sequence is *given up* once a NACK round finds its budget
/// spent (no longer listed or NACKed; a late copy is still delivered) and
/// *settled* once an accepted sequence lands `gap_window` / 2 past it (the
/// cursor skips it; a late copy is a duplicate). See DESIGN.md §7.
class ReceiveWindow {
 public:
  /// Throws ConfigError unless both limits are positive.
  ReceiveWindow(int nack_retry_cap, std::uint64_t gap_window);

  /// True when `seq` is `gap_window` or more past the cursor: a forged or
  /// bit-flipped sequence, rejected before it touches any state.
  bool implausible(std::uint64_t seq) const noexcept {
    return seq > next_ && seq - next_ >= gap_window_;
  }
  /// Count a plausible `seq` as seen: the undelivered sequences below it
  /// become gaps, and any `gap_window` / 2 behind it settle.
  void accept(std::uint64_t seq);
  /// True when `seq` was delivered or settled.
  bool done(std::uint64_t seq) const noexcept {
    return seq < next_ || ahead_.count(seq) > 0;
  }
  void deliver(std::uint64_t seq);

  /// Missing sequences up to the newest accepted one, bar given-up ones.
  std::vector<std::uint64_t> gaps() const;
  /// One NACK round: gives up each gap whose retry budget is spent,
  /// charges one attempt to every other gap and returns those.
  std::vector<std::uint64_t> take_nacks();

  std::uint64_t next_expected() const noexcept { return next_; }
  /// Sequences settled, plus those given up that no late copy has filled.
  std::uint64_t abandoned() const noexcept {
    return settled_ + given_up_.size();
  }
  /// Sequences settled before a NACK round gave them up.
  std::uint64_t outrun() const noexcept { return outrun_; }

 private:
  void settle(std::uint64_t seq);

  int nack_retry_cap_;
  std::uint64_t gap_window_;
  std::uint64_t next_ = 0;
  std::uint64_t horizon_ = 0;      ///< newest accepted + 1 (0: none yet)
  std::set<std::uint64_t> ahead_;  ///< done sequences above the cursor
  std::map<std::uint64_t, int> nack_attempts_;
  std::set<std::uint64_t> given_up_;  ///< missing, budget spent
  std::uint64_t settled_ = 0;
  std::uint64_t outrun_ = 0;
};

}  // namespace acex::transport
