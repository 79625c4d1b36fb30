#include "echo/bridge.hpp"

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex::echo {
namespace {

// Message discriminators on the bridged transport. Events travel only as
// kMsgEventSeqCrc (sequence + CRC over sequence and body). The retired
// kinds 0 (no sequence) and 2 (no CRC) are counted as corrupt: a bit flip
// inside an event body can survive deserialization, and without the CRC
// the damaged event would be delivered as genuine AND consume its
// sequence, so the ring's clean copy is later dup-dropped (found by
// `acexfuzz --soak`).
constexpr std::uint8_t kMsgControl = 1;
constexpr std::uint8_t kMsgEventSeqCrc = 3;

Bytes wrap(std::uint8_t kind, ByteView body) {
  Bytes out;
  out.reserve(body.size() + 1);
  out.push_back(kind);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Bytes wrap_seq(std::uint64_t seq, ByteView body) {
  Bytes out;
  out.reserve(body.size() + 14);
  out.push_back(kMsgEventSeqCrc);
  put_varint(out, seq);
  out.insert(out.end(), body.begin(), body.end());
  // Trailing CRC over the sequence varint AND the body: a flipped bit in
  // either must read as corruption, never as a different valid message.
  const std::uint32_t crc = crc32(ByteView(out).subspan(1));
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

Bytes encode_seqs(const std::vector<std::uint64_t>& seqs) {
  Bytes out;
  for (const std::uint64_t seq : seqs) put_varint(out, seq);
  return out;
}

std::vector<std::uint64_t> decode_seqs(ByteView in) {
  std::vector<std::uint64_t> seqs;
  std::size_t pos = 0;
  while (pos < in.size()) seqs.push_back(get_varint(in, &pos));
  return seqs;
}

}  // namespace

ChannelSender::ChannelSender(EventChannel& channel,
                             transport::Transport& transport,
                             std::size_t ring_capacity, int max_retries)
    : channel_(&channel),
      transport_(&transport),
      ring_(ring_capacity, max_retries) {
  tap_ = channel_->subscribe([this](const Event& event) {
    const std::uint64_t seq = next_sequence_++;
    Bytes wire = wrap_seq(seq, serialize_event(event));
    transport_->send(wire);
    ring_.store(seq, std::move(wire));
    ++forwarded_;
  });
}

ChannelSender::~ChannelSender() { channel_->unsubscribe(tap_); }

std::size_t ChannelSender::pump_control() {
  std::size_t applied = 0;
  while (auto message = transport_->receive()) {
    try {
      if (message->empty()) throw DecodeError("bridge: empty message");
      if ((*message)[0] != kMsgControl) {
        // Event messages arriving at the producer side are a protocol
        // error, but tolerating them keeps loopback tests simple: ignore.
        continue;
      }
      std::size_t pos = 0;
      AttributeMap attrs =
          AttributeMap::deserialize(ByteView(*message).subspan(1), &pos);
      if (const auto nacks = attrs.get_bytes(kNackAttr)) {
        // Bridge-internal retransmit request: replay what the ring still
        // holds and keep the attribute away from application control
        // sinks. Application attributes riding in the same message are
        // still forwarded.
        std::size_t replayed = 0;
        for (const std::uint64_t seq : decode_seqs(*nacks)) {
          if (const BufferView* wire = ring_.replay(seq)) {
            transport_->send(*wire);
            ++retransmits_;
            ++replayed;
          }
        }
        attrs.erase(kNackAttr);
        if (!attrs.empty()) {
          channel_->signal_control(attrs);
          ++applied;
        } else if (replayed > 0) {
          ++applied;
        }
        continue;
      }
      channel_->signal_control(attrs);
      ++applied;
    } catch (const Error&) {
      // Same contract as the consumer side's poll(): corrupt control
      // messages are counted and skipped, never allowed to kill the pump.
      ++control_corrupt_;
    }
  }
  return applied;
}

ChannelReceiver::ChannelReceiver(EventChannel& channel,
                                 transport::Transport& transport,
                                 int nack_retry_cap,
                                 std::uint64_t gap_window)
    : channel_(&channel),
      transport_(&transport),
      window_(nack_retry_cap, gap_window) {}

std::size_t ChannelReceiver::poll(std::size_t max_events) {
  std::size_t delivered = 0;
  while (delivered < max_events) {
    const auto message = transport_->receive();
    if (!message) break;
    if (message->empty()) {
      ++corrupt_;
      continue;
    }
    const std::uint8_t kind = (*message)[0];
    if (kind == kMsgEventSeqCrc) {
      std::size_t pos = 1;
      try {
        const std::uint64_t seq = get_varint(*message, &pos);
        if (window_.implausible(seq)) {
          // What a flipped continuation bit in the varint looks like.
          throw DecodeError("bridge: implausible sequence");
        }
        // Verify the trailing CRC before trusting anything — including
        // the sequence just parsed. A damaged message must surface as a
        // gap to NACK, not as a delivered event or a consumed sequence.
        if (message->size() - pos < 4) {
          throw DecodeError("bridge: event crc truncated");
        }
        const std::size_t body_end = message->size() - 4;
        std::uint32_t crc = 0;
        for (int i = 0; i < 4; ++i) {
          crc |=
              static_cast<std::uint32_t>((*message)[body_end + i]) << (8 * i);
        }
        if (crc32(ByteView(*message).subspan(1, body_end - 1)) != crc) {
          throw DecodeError("bridge: event crc mismatch");
        }
        if (window_.done(seq)) {
          ++duplicates_;
          continue;
        }
        Event event =
            deserialize_event(ByteView(*message).subspan(pos, body_end - pos));
        // Commit sequence tracking only after the body deserialized: a
        // seq whose message is detectably corrupt must not open gaps. The
        // damage (if the event was real) shows up as a gap once later
        // sequences arrive, and is NACKed then.
        window_.accept(seq);
        channel_->submit(std::move(event));
        window_.deliver(seq);
        ++received_;
        ++delivered;
      } catch (const Error&) {
        ++corrupt_;
      }
    } else if (kind != kMsgControl) {
      ++corrupt_;  // a retired envelope (kinds 0 and 2) or an unknown kind
    }
    // Control messages arriving at the consumer side are ignored, like
    // event messages at the producer side.
  }
  return delivered;
}

void ChannelReceiver::signal_control(const AttributeMap& attrs) {
  Bytes body;
  attrs.serialize(body);
  transport_->send(wrap(kMsgControl, body));
}

std::size_t ChannelReceiver::signal_nacks() {
  const std::vector<std::uint64_t> request = window_.take_nacks();
  if (request.empty()) return 0;
  AttributeMap attrs;
  attrs.set_bytes(kNackAttr, encode_seqs(request));
  signal_control(attrs);
  nacks_signalled_ += request.size();
  return request.size();
}

}  // namespace acex::echo
