#include "net/client.hpp"

#include "util/error.hpp"

namespace acex::net {

void InboundQueue::send(ByteView) {
  throw ConfigError("InboundQueue is receive-only");
}

std::optional<Bytes> InboundQueue::receive() {
  if (frames_.empty()) return std::nullopt;
  Bytes front = std::move(frames_.front());
  frames_.pop_front();
  return front;
}

DaemonClient::DaemonClient(std::uint16_t port, DaemonClientConfig config)
    : config_(std::move(config)),
      rx_(clock_),
      session_(clock_, config_.session) {
  handshake(port, config_.offer);
  session_.on_connected(
      welcome_.session_id, welcome_.token, rx_,
      static_cast<Seconds>(welcome_.heartbeat_interval_ms) / 1000.0);
}

void DaemonClient::handshake(std::uint16_t port,
                             const CompressionOffer& offer) {
  fd_.reset(connect_loopback(port));
  send_msg(MsgKind::kHello, offer_encode(offer));

  // Welcome/Reject is the first frame — but a resume may legally be
  // preceded by replayed kData (the daemon pumps as soon as the session is
  // live). Queue anything that arrives ahead of the answer.
  for (;;) {
    if (!wait_readable(fd_.get(), config_.io_timeout_ms)) {
      fd_.reset();
      throw IoError("daemon handshake timed out");
    }
    auto frame = recv_message(fd_.get());
    if (!frame) {
      fd_.reset();
      throw IoError("daemon closed during handshake");
    }
    Msg msg = unwrap(*frame);
    if (msg.kind == MsgKind::kWelcome) {
      welcome_ = welcome_decode(msg.payload);
      return;
    }
    if (msg.kind == MsgKind::kReject) {
      const Reject reject = reject_decode(msg.payload);
      fd_.reset();
      throw HandshakeError(reject.status,
                           std::string(handshake_status_name(reject.status)) +
                               ": " + reject.reason);
    }
    handle_inbound(std::move(msg));
  }
}

void DaemonClient::send_msg(MsgKind kind, ByteView payload) {
  if (!fd_.valid()) throw IoError("daemon client not connected");
  send_message(fd_.get(), wrap(kind, payload));
}

void DaemonClient::handle_inbound(Msg msg) {
  switch (msg.kind) {
    case MsgKind::kData:
      ++data_frames_;
      wire_crc_.update(msg.payload);
      rx_.push(std::move(msg.payload));
      break;
    case MsgKind::kControl:
      // Heartbeat/bye acknowledgements; nothing to do — liveness is the
      // server's concern, the client just keeps sending proofs.
      break;
    case MsgKind::kStatReply:
      last_stats_ = stats_decode(msg.payload);
      break;
    default:
      throw IoError("unexpected server message: " +
                    std::string(msg_kind_name(msg.kind)));
  }
}

std::size_t DaemonClient::decode_available() {
  auto* receiver = session_.receiver();
  if (receiver == nullptr) return 0;
  const Bytes chunk = receiver->receive_available();
  stream_.insert(stream_.end(), chunk.begin(), chunk.end());
  return chunk.size();
}

void DaemonClient::nack_round() {
  // Turn the receiver's gap report into a kNack round-trip. Each round
  // spends one of every open gap's NACK attempts, so run one only on a live
  // socket, and only when data frames arrived since the last round, or a
  // heartbeat interval after it (a loss at the tail of the stream is still
  // NACKed); an idle poll comes back long before a replay could.
  auto* receiver = session_.receiver();
  if (receiver == nullptr || !fd_.valid()) return;
  const Seconds now = clock_.now();
  if (data_frames_ == nack_round_frames_ &&
      now - nack_round_at_ < session_.heartbeat_interval()) {
    return;
  }
  nack_round_frames_ = data_frames_;
  nack_round_at_ = now;
  const auto nacks = receiver->take_nacks();
  if (!nacks.empty()) send_msg(MsgKind::kNack, nack_encode(nacks));
}

std::size_t DaemonClient::poll(int timeout_ms) {
  if (fd_.valid() && session_.connected() && session_.heartbeat_due()) {
    send_msg(MsgKind::kControl, session_.make_heartbeat());
  }
  if (fd_.valid() && wait_readable(fd_.get(), timeout_ms)) {
    // Drain every complete frame currently buffered before decoding once.
    for (;;) {
      auto frame = recv_message(fd_.get());
      if (!frame) {
        fd_.reset();  // server closed; session state kept for resume()
        session_.on_dropped();
        break;
      }
      handle_inbound(unwrap(*frame));
      if (!wait_readable(fd_.get(), 0)) break;
    }
  }
  const std::size_t decoded = decode_available();
  nack_round();
  return decoded;
}

bool DaemonClient::poll_until(std::size_t target_bytes, int deadline_ms) {
  const Seconds deadline = clock_.now() + deadline_ms / 1000.0;
  while (stream_.size() < target_bytes) {
    if (clock_.now() >= deadline) return false;
    if (!fd_.valid()) return false;
    poll(50);
  }
  return true;
}

std::uint32_t DaemonClient::wire_crc() const noexcept {
  return wire_crc_.value();
}

DaemonStats DaemonClient::stat() {
  last_stats_.reset();
  send_msg(MsgKind::kStatRequest, {});
  const Seconds deadline = clock_.now() + config_.io_timeout_ms / 1000.0;
  while (!last_stats_) {
    if (clock_.now() >= deadline) throw IoError("stat reply timed out");
    poll(50);
    if (!fd_.valid()) throw IoError("daemon closed before stat reply");
  }
  return *last_stats_;
}

void DaemonClient::bye() {
  if (!fd_.valid()) return;
  send_msg(MsgKind::kControl, session_.make_bye());
  fd_.reset();
  session_.on_dropped();
}

void DaemonClient::drop() {
  // Decode whatever already arrived so resume_from reflects every frame
  // this client actually has — the replay gap starts exactly after it. No
  // NACK round: nothing could answer it, and resume() replays the gap.
  decode_available();
  fd_.reset();
  session_.on_dropped();
}

void DaemonClient::resume(std::uint16_t port) {
  decode_available();
  CompressionOffer offer = config_.offer;
  offer.resume_session = session_.session_id();
  offer.resume_token = session_.token();
  offer.resume_from = session_.resume_from();
  handshake(port, offer);
  session_.on_resumed(rx_, welcome_.token);
}

}  // namespace acex::net
