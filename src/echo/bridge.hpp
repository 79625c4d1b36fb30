#pragma once

#include <vector>

#include "echo/channel.hpp"
#include "transport/receive_window.hpp"
#include "transport/retransmit.hpp"
#include "transport/transport.hpp"

namespace acex::echo {

/// Quality attribute carrying NACKed sequence numbers upstream (a bytes
/// attribute holding consecutive varints). Bridge-internal: pump_control
/// consumes it before application control sinks ever see the message.
inline constexpr const char* kNackAttr = "acex.nack.seqs";

/// Bridges one EventChannel across a Transport, extending the channel
/// abstraction over a (possibly emulated) network: ECho's channels are
/// "distributed entities, with bookkeeping shared between all processes
/// where they are referenced" (§3.1).
///
/// Producer side. Subscribes to a local channel and forwards every event
/// over the transport; control messages arriving from the remote side are
/// replayed onto the local channel's control path, so a remote consumer
/// can steer a local producer (e.g. request a compression-method change).
///
/// Every forwarded event carries a bridge-level sequence number and is
/// retained in a bounded retransmit ring; when the consumer side NACKs
/// missing or corrupt sequences over the control path, pump_control()
/// replays them (capped retries per sequence).
class ChannelSender {
 public:
  /// Both `channel` and `transport` must outlive the sender. `ring_capacity`
  /// bounds the retransmit history; `max_retries` caps replays per event.
  ChannelSender(EventChannel& channel, transport::Transport& transport,
                std::size_t ring_capacity = 64, int max_retries = 3);
  ~ChannelSender();

  ChannelSender(const ChannelSender&) = delete;
  ChannelSender& operator=(const ChannelSender&) = delete;

  /// Drain pending control messages from the remote side (non-blocking for
  /// SimTransport; for TcpTransport call from the producer's loop thread).
  /// NACK requests are serviced from the retransmit ring; any application
  /// attributes — whether in their own message or riding alongside a NACK
  /// payload — are applied to the local channel. Returns the number of
  /// control messages applied (NACK-only messages count when at least one
  /// event was replayed). Corrupt control messages are counted and
  /// skipped, never thrown — the bridge is the recovery boundary on this
  /// path too.
  std::size_t pump_control();

  std::uint64_t events_forwarded() const noexcept { return forwarded_; }
  std::uint64_t events_retransmitted() const noexcept { return retransmits_; }
  /// NACKs that could not be honoured (sequence evicted or out of retries).
  std::uint64_t nacks_refused() const noexcept {
    return ring_.refusals();
  }
  /// Control messages dropped because they failed to parse.
  std::uint64_t control_corrupt_dropped() const noexcept {
    return control_corrupt_;
  }

 private:
  EventChannel* channel_;
  transport::Transport* transport_;
  SubscriberId tap_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t control_corrupt_ = 0;
  std::uint64_t next_sequence_ = 0;
  transport::RetransmitRing ring_;
};

/// Consumer side. Call poll() to pull remote events into the local
/// channel; use signal_control() to send quality attributes upstream.
///
/// Bridge sequence numbers are tracked in a transport::ReceiveWindow:
/// duplicates are dropped, and gaps (dropped upstream, or corrupted so the
/// sequence cannot be trusted) are NACKed by signal_nacks() over the
/// control path until the window gives them up (events_abandoned()).
class ChannelReceiver {
 public:
  /// `nack_retry_cap` and `gap_window` as in adaptive::ReceiverConfig:
  /// keep `gap_window` >= 2 x the sender's ring_capacity.
  ChannelReceiver(EventChannel& channel, transport::Transport& transport,
                  int nack_retry_cap = 3, std::uint64_t gap_window = 1024);

  ChannelReceiver(const ChannelReceiver&) = delete;
  ChannelReceiver& operator=(const ChannelReceiver&) = delete;

  /// Receive at most `max_events` events (default: drain everything
  /// available), submitting each into the local channel. Returns how many
  /// events were delivered. Returns early when the transport reports no
  /// message / closed. Corrupt messages are counted and skipped, never
  /// thrown — the bridge is the recovery boundary.
  std::size_t poll(std::size_t max_events = SIZE_MAX);

  /// Send quality attributes upstream to the producer-side bridge.
  void signal_control(const AttributeMap& attrs);

  /// NACK every currently missing sequence (respecting the retry cap) in
  /// one control message. Returns how many sequences were requested; 0
  /// means nothing is missing or everything missing is past the cap.
  std::size_t signal_nacks();

  /// Sequences currently believed missing (for diagnostics and tests).
  std::vector<std::uint64_t> missing() const { return window_.gaps(); }

  std::uint64_t events_received() const noexcept { return received_; }
  std::uint64_t duplicates_dropped() const noexcept { return duplicates_; }
  std::uint64_t corrupt_dropped() const noexcept { return corrupt_; }
  std::uint64_t nacks_signalled() const noexcept { return nacks_signalled_; }
  /// Sequences given up or settled without delivery.
  std::uint64_t events_abandoned() const noexcept {
    return window_.abandoned();
  }

 private:
  EventChannel* channel_;
  transport::Transport* transport_;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t nacks_signalled_ = 0;
  transport::ReceiveWindow window_;
};

}  // namespace acex::echo
