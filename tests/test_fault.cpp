// End-to-end fault-tolerance suite: FaultInjectingTransport semantics, the
// receiver recovery policies (kThrow / kSkip / kNack), sender-side codec
// degradation with the circuit breaker, and the NACK/retransmit round trip
// — including the headline acceptance scenarios from DESIGN.md §6 (2%
// bit flips + 1% drops on a 200-block stream).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "adaptive/telemetry.hpp"
#include "compress/frame.hpp"
#include "compress/null_codec.hpp"
#include "echo/bridge.hpp"
#include "netsim/link.hpp"
#include "obs/metrics.hpp"
#include "testdata.hpp"
#include "transport/fault_transport.hpp"
#include "transport/retransmit.hpp"
#include "transport/sim_transport.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex {
namespace {

netsim::LinkParams flat_link(double bps) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bps;
  p.jitter_frac = 0;
  p.latency_s = 0;
  return p;
}

/// A bridge event message as ChannelSender frames it: kind 3, the sequence
/// varint, the serialized event, then a little-endian CRC-32 over the
/// sequence and the body.
Bytes seq_crc_envelope(std::uint64_t seq, const Bytes& body) {
  Bytes out{3};
  put_varint(out, seq);
  out.insert(out.end(), body.begin(), body.end());
  const std::uint32_t crc = crc32(ByteView(out).subspan(1));
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

/// Always-throwing codec: what a buggy or resource-starved method looks
/// like to the sender. Registered under kBurrowsWheeler in breaker tests.
class ThrowingCodec final : public Codec {
 public:
  MethodId id() const noexcept override { return MethodId::kBurrowsWheeler; }
  Bytes compress(ByteView) override { throw DecodeError("codec exploded"); }
  Bytes decompress(ByteView) override { throw DecodeError("codec exploded"); }
};

/// "Compressor" that expands every input — the other degradation trigger.
class ExpandingCodec final : public Codec {
 public:
  MethodId id() const noexcept override { return MethodId::kBurrowsWheeler; }
  Bytes compress(ByteView input) override {
    Bytes out(input.begin(), input.end());
    out.resize(out.size() + 4096, 0xEE);
    return out;
  }
  Bytes decompress(ByteView input) override {
    if (input.size() < 4096) throw DecodeError("short expanded payload");
    return Bytes(input.begin(), input.end() - 4096);
  }
};

class FaultTest : public ::testing::Test {
 protected:
  void wire(double bps = 1e6) {
    forward_.emplace(flat_link(bps), 1);
    reverse_.emplace(flat_link(1e9), 2);
    duplex_.emplace(*forward_, *reverse_, clock_);
  }

  static adaptive::AdaptiveConfig small_blocks() {
    adaptive::AdaptiveConfig config;
    config.async_sampling = false;  // deterministic
    config.decision.block_size = 4096;
    config.decision.sample_size = 1024;
    return config;
  }

  VirtualClock clock_;
  std::optional<netsim::SimLink> forward_, reverse_;
  std::optional<transport::SimDuplex> duplex_;
};

// ------------------------------------------- FaultInjectingTransport

TEST_F(FaultTest, DropSwallowsEveryMessage) {
  wire();
  transport::FaultConfig faults;
  faults.drop_prob = 1.0;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);
  for (int i = 0; i < 5; ++i) lossy.send(Bytes{1, 2, 3});
  lossy.flush();
  EXPECT_FALSE(duplex_->b().receive().has_value());
  EXPECT_EQ(lossy.counters().messages, 5u);
  EXPECT_EQ(lossy.counters().drops, 5u);
}

TEST_F(FaultTest, ReorderSwapsAdjacentMessages) {
  wire();
  transport::FaultConfig faults;
  faults.reorder_prob = 1.0;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);
  lossy.send(Bytes{0});  // held back
  lossy.send(Bytes{1});  // delivered, then releases the held one
  lossy.send(Bytes{2});  // held again
  lossy.flush();         // stream over: the straggler comes out

  std::vector<Bytes> got;
  while (auto m = duplex_->b().receive()) got.push_back(*m);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], Bytes{1});
  EXPECT_EQ(got[1], Bytes{0});
  EXPECT_EQ(got[2], Bytes{2});
  EXPECT_EQ(lossy.counters().reorders, 2u);
  EXPECT_EQ(lossy.counters().clean, 1u);
}

TEST_F(FaultTest, DuplicateDeliversTwice) {
  wire();
  transport::FaultConfig faults;
  faults.duplicate_prob = 1.0;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);
  lossy.send(Bytes{7, 7});
  std::size_t copies = 0;
  while (auto m = duplex_->b().receive()) {
    EXPECT_EQ(*m, (Bytes{7, 7}));
    ++copies;
  }
  EXPECT_EQ(copies, 2u);
  EXPECT_EQ(lossy.counters().duplicates, 1u);
}

TEST_F(FaultTest, CountersAlwaysReconcile) {
  wire();
  transport::FaultConfig faults;
  faults.drop_prob = 0.1;
  faults.reorder_prob = 0.1;
  faults.duplicate_prob = 0.1;
  faults.bit_flip_prob = 0.1;
  faults.truncate_prob = 0.1;
  faults.seed = 99;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);
  for (int i = 0; i < 200; ++i) lossy.send(Bytes(32, 0x5C));
  lossy.flush();
  const transport::FaultCounters& c = lossy.counters();
  EXPECT_EQ(c.messages, 200u);
  EXPECT_EQ(c.messages, c.drops + c.reorders + c.duplicates + c.bit_flips +
                            c.truncations + c.clean);
  EXPECT_GT(c.drops, 0u);  // at these rates, every class fires
  EXPECT_GT(c.bit_flips, 0u);
}

TEST_F(FaultTest, SetConfigHealsTheLink) {
  wire();
  transport::FaultConfig faults;
  faults.drop_prob = 1.0;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);
  lossy.send(Bytes{1});
  EXPECT_FALSE(duplex_->b().receive().has_value());
  lossy.set_config({});  // heal before a retransmit round
  lossy.send(Bytes{2});
  EXPECT_EQ(duplex_->b().receive(), (Bytes{2}));
}

// ------------------------------------------------------ RetransmitRing

TEST(RetransmitRing, EvictsOldestWhenFull) {
  transport::RetransmitRing ring(2, 3);
  ring.store(0, Bytes{0});
  ring.store(1, Bytes{1});
  ring.store(2, Bytes{2});  // evicts sequence 0
  EXPECT_EQ(ring.replay(0), nullptr);
  ASSERT_NE(ring.replay(1), nullptr);
  ASSERT_NE(ring.replay(2), nullptr);
  EXPECT_EQ(ring.evictions(), 1u);
  EXPECT_EQ(ring.refusals(), 1u);
}

TEST(RetransmitRing, CapsRetriesPerSequence) {
  transport::RetransmitRing ring(4, 2);
  ring.store(5, Bytes{5});
  EXPECT_NE(ring.replay(5), nullptr);
  EXPECT_NE(ring.replay(5), nullptr);
  EXPECT_EQ(ring.replay(5), nullptr);  // out of retry budget
  EXPECT_EQ(ring.replays(), 2u);
  EXPECT_EQ(ring.refusals(), 1u);
}

TEST(RetransmitRing, RejectsDegenerateConfig) {
  EXPECT_THROW(transport::RetransmitRing(0, 3), ConfigError);
  EXPECT_THROW(transport::RetransmitRing(4, 0), ConfigError);
}

TEST(RetransmitRing, EvictsOnBytePressure) {
  // Slot budget is generous; the 250-byte envelope is what binds. Three
  // 100-byte frames exceed it, so storing the third evicts the oldest.
  transport::RetransmitRing ring(64, 3, 250);
  ring.store(0, Bytes(100, 0xA0));
  ring.store(1, Bytes(100, 0xA1));
  EXPECT_EQ(ring.bytes(), 200u);
  ring.store(2, Bytes(100, 0xA2));
  EXPECT_EQ(ring.replay(0), nullptr);
  ASSERT_NE(ring.replay(1), nullptr);
  ASSERT_NE(ring.replay(2), nullptr);
  EXPECT_EQ(ring.bytes(), 200u);
  EXPECT_EQ(ring.evictions(), 1u);
}

TEST(RetransmitRing, ByteBudgetNeverEvictsTheNewestFrame) {
  // One frame alone may exceed the budget: it must still be retained
  // (evicting the frame just stored would make every store a no-op).
  transport::RetransmitRing ring(8, 3, 50);
  ring.store(0, Bytes(200, 0xB0));
  ASSERT_NE(ring.replay(0), nullptr);
  EXPECT_EQ(ring.bytes(), 200u);
  ring.store(1, Bytes(10, 0xB1));  // now the oversized one goes
  EXPECT_EQ(ring.replay(0), nullptr);
  ASSERT_NE(ring.replay(1), nullptr);
  EXPECT_EQ(ring.bytes(), 10u);
}

TEST(RetransmitRing, PeekDoesNotConsumeRetryBudget) {
  transport::RetransmitRing ring(4, 1);
  ring.store(7, Bytes{7, 7});
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(ring.peek(7), nullptr);  // resume replay: no retry accounting
  }
  EXPECT_EQ(*ring.peek(7), (Bytes{7, 7}));
  EXPECT_NE(ring.replay(7), nullptr);   // the single NACK retry still there
  EXPECT_EQ(ring.replay(7), nullptr);   // ...and now spent
  EXPECT_NE(ring.peek(7), nullptr);     // resume is not bound by that budget
  EXPECT_EQ(ring.peek(99), nullptr);    // unknown sequences stay unknown
  ring.store(8, Bytes(1, 8));
  ring.store(9, Bytes(1, 9));
  ring.store(10, Bytes(1, 10));
  ring.store(11, Bytes(1, 11));  // capacity 4: sequence 7 evicted
  EXPECT_EQ(ring.peek(7), nullptr);  // peek does honour real eviction
}

// ------------------------------------------------- receiver policies

TEST_F(FaultTest, ThrowPolicyKeepsSeedBehaviour) {
  wire();
  NullCodec null;
  duplex_->a().send(frame_compress_seq(null, Bytes{1, 2, 3}, 0));
  Bytes bad = frame_compress_seq(null, Bytes{4, 5, 6}, 1);
  bad[bad.size() / 2] ^= 0x01;
  duplex_->a().send(bad);
  adaptive::AdaptiveReceiver rx(duplex_->b());  // default policy: kThrow
  EXPECT_THROW(rx.receive_available(), DecodeError);
}

TEST_F(FaultTest, SkipPolicyQuarantinesAndReportsGaps) {
  wire();
  NullCodec null;
  std::vector<Bytes> blocks;
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    blocks.push_back(testdata::low_entropy(500 + seq * 11, seq));
    Bytes framed = frame_compress_seq(null, blocks.back(), seq);
    if (seq == 2 || seq == 4) framed[framed.size() - 2] ^= 0xFF;  // CRC area
    duplex_->a().send(framed);
  }
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});
  const adaptive::ReceiveReport report = rx.receive_report();
  EXPECT_EQ(report.frames_ok, 4u);
  EXPECT_EQ(report.frames_corrupt, 2u);
  EXPECT_EQ(report.gaps, (std::vector<std::uint64_t>{2, 4}));

  Bytes expected;
  for (const std::uint64_t seq : {0, 1, 3, 5}) {
    expected.insert(expected.end(), blocks[seq].begin(), blocks[seq].end());
  }
  EXPECT_EQ(report.data, expected);
  EXPECT_EQ(report.bytes_recovered, expected.size());
  EXPECT_EQ(rx.frames_corrupt(), 2u);
}

TEST_F(FaultTest, SkipPolicyDropsDuplicatesAndSortsReorders) {
  wire();
  NullCodec null;
  const Bytes b0 = testdata::low_entropy(400, 1);
  const Bytes b1 = testdata::low_entropy(400, 2);
  duplex_->a().send(frame_compress_seq(null, b1, 1));  // reordered
  duplex_->a().send(frame_compress_seq(null, b0, 0));
  duplex_->a().send(frame_compress_seq(null, b0, 0));  // duplicate
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});
  const adaptive::ReceiveReport report = rx.receive_report();
  EXPECT_EQ(report.frames_ok, 2u);
  EXPECT_EQ(report.frames_duplicate, 1u);
  EXPECT_TRUE(report.gaps.empty());
  Bytes expected = b0;
  expected.insert(expected.end(), b1.begin(), b1.end());
  EXPECT_EQ(report.data, expected);  // sequence order, not arrival order
}

TEST_F(FaultTest, ReceiverClampsSequencesOutsideTheGapWindow) {
  wire();
  NullCodec null;
  duplex_->a().send(frame_compress_seq(null, Bytes{1}, 0));
  // A corrupt sequence varint that happens to pass the 1-byte header
  // checksum: before the gap-window clamp, folding UINT64_MAX into
  // max_seen_ made the gap scan loop forever (and any huge value made it
  // allocate an astronomical gap list).
  duplex_->a().send(frame_compress_seq(null, Bytes{2}, UINT64_MAX));
  duplex_->a().send(frame_compress_seq(null, Bytes{3}, (1ull << 60)));
  duplex_->a().send(frame_compress_seq(null, Bytes{4}, 1));
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kNack, 3});
  const adaptive::ReceiveReport report = rx.receive_report();
  EXPECT_EQ(report.frames_ok, 2u);       // sequences 0 and 1
  EXPECT_EQ(report.frames_corrupt, 2u);  // both forged headers quarantined
  EXPECT_TRUE(report.gaps.empty());
  EXPECT_TRUE(rx.take_nacks().empty());
  for (const adaptive::FrameOutcome& f : report.frames) {
    if (f.status == adaptive::FrameOutcome::Status::kCorrupt) {
      EXPECT_FALSE(f.has_sequence);  // a rejected sequence is not reported
    }
  }
}

TEST_F(FaultTest, ReceiverRejectsZeroGapWindow) {
  wire();
  EXPECT_THROW(adaptive::AdaptiveReceiver(
                   duplex_->b(), {adaptive::RecoveryPolicy::kSkip, 3, 0}),
               ConfigError);
}

TEST_F(FaultTest, NackPolicyRespectsRetryCap) {
  wire();
  NullCodec null;
  duplex_->a().send(frame_compress_seq(null, Bytes{1}, 0));
  duplex_->a().send(frame_compress_seq(null, Bytes{3}, 2));  // 1 missing
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kNack, 2});
  (void)rx.receive_report();
  EXPECT_EQ(rx.take_nacks(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(rx.take_nacks(), (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(rx.take_nacks().empty());  // cap reached: given up
  EXPECT_EQ(rx.nacks_abandoned(), 1u);
}

TEST_F(FaultTest, OneUnrecoverableFrameNeverWedgesTheReceiver) {
  // Seq 5 never arrives and has left the sender's 64-frame ring before the
  // first NACK. Unless the receiver settles it, the cursor stays at 5 and
  // every frame from 5 + gap_window on is rejected as implausibly far
  // ahead. It settles once the stream runs gap_window / 2 past it.
  constexpr std::uint64_t kFrames = 1499, kLost = 5;
  for (const adaptive::RecoveryPolicy policy :
       {adaptive::RecoveryPolicy::kSkip, adaptive::RecoveryPolicy::kNack}) {
    wire();
    NullCodec null;
    transport::RetransmitRing ring(64, 3);
    adaptive::AdaptiveReceiver rx(duplex_->b(), {policy, 3});
    const obs::Gauge& abandoned_series =
        obs::MetricsRegistry::global().gauge("acex.adaptive.rx.abandoned");
    const std::int64_t series_before = abandoned_series.value();
    std::size_t refused = 0;
    for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
      Bytes wire = frame_compress_seq(
          null, Bytes{static_cast<std::uint8_t>(seq), 7}, seq);
      if (seq != kLost) duplex_->a().send(wire);
      ring.store(seq, std::move(wire));
      if (seq % 100 != 99 && seq + 1 != kFrames) continue;
      (void)rx.receive_report();
      for (const std::uint64_t nack : rx.take_nacks()) {
        if (const BufferView* replay = ring.replay(nack)) {
          duplex_->a().send(*replay);
        } else {
          ++refused;
        }
      }
    }
    (void)rx.receive_report();
    EXPECT_EQ(rx.frames_received(), kFrames - 1);
    EXPECT_EQ(rx.frames_corrupt(), 0u);
    EXPECT_EQ(rx.nacks_abandoned(), 1u);
    EXPECT_EQ(abandoned_series.value() - series_before, 1);
    EXPECT_EQ(rx.next_expected(), kFrames);
    EXPECT_TRUE(rx.take_nacks().empty());
    if (policy == adaptive::RecoveryPolicy::kNack) {
      EXPECT_EQ(refused, 3u);  // the whole retry budget went to seq 5
    }

    // A straggling copy of the settled frame is a duplicate, not a block.
    duplex_->a().send(*ring.peek(kFrames - 1));
    duplex_->a().send(frame_compress_seq(null, Bytes{kLost, 7}, kLost));
    const adaptive::ReceiveReport late = rx.receive_report();
    EXPECT_EQ(late.frames_duplicate, 2u);
    EXPECT_EQ(late.frames_ok, 0u);
  }
}

// ------------------------------------- sender degradation + breaker

TEST_F(FaultTest, CircuitBreakerQuarantinesAFailingMethod) {
  wire(100e3);
  adaptive::AdaptiveConfig config = small_blocks();
  config.target_rate_Bps = 1e12;  // force the ladder top: kBurrowsWheeler
  adaptive::AdaptiveSender sender(duplex_->a(), config);
  sender.registry().register_factory(
      MethodId::kBurrowsWheeler, [] { return CodecPtr(new ThrowingCodec); });
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});

  const Bytes data = testdata::repetitive_text(8 * 4096, 21);
  const adaptive::StreamReport report = sender.send_all(data);
  ASSERT_EQ(report.blocks.size(), 8u);

  // First three blocks: BW throws, the block ships raw, health declines.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(report.blocks[i].fallback) << "block " << i;
    EXPECT_EQ(report.blocks[i].method, MethodId::kNone);
    EXPECT_EQ(report.blocks[i].requested_method, MethodId::kBurrowsWheeler);
  }
  // Breaker open: the selector is demoted below BW and stops failing.
  for (std::size_t i = 3; i < 8; ++i) {
    EXPECT_FALSE(report.blocks[i].fallback) << "block " << i;
    EXPECT_NE(report.blocks[i].method, MethodId::kBurrowsWheeler);
  }
  const adaptive::DegradationStats& d = sender.degradation();
  EXPECT_EQ(d.codec_failures, 3u);
  EXPECT_EQ(d.fallbacks, 3u);
  EXPECT_EQ(d.quarantines, 1u);
  EXPECT_EQ(d.expansions, 0u);

  // Nothing about degradation is allowed to damage the stream itself.
  EXPECT_EQ(rx.receive_available(), data);
}

TEST_F(FaultTest, BreakerReTripsImmediatelyWhenTheProbeFails) {
  wire(100e3);
  adaptive::AdaptiveConfig config = small_blocks();
  config.target_rate_Bps = 1e12;  // keep the selector on kBurrowsWheeler
  adaptive::AdaptiveSender sender(duplex_->a(), config);
  sender.registry().register_factory(
      MethodId::kBurrowsWheeler, [] { return CodecPtr(new ThrowingCodec); });
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});

  // The opening trip, then two half-open probes, each one cooldown after
  // the block that tripped the breaker before it.
  constexpr std::size_t kThreshold = adaptive::kBreakerFailureThreshold;
  constexpr std::size_t kCooldown = adaptive::kBreakerCooldownBlocks;
  constexpr std::size_t kFirstProbe = kThreshold + kCooldown;
  constexpr std::size_t kSecondProbe = kFirstProbe + 1 + kCooldown;
  const Bytes data =
      testdata::repetitive_text((kSecondProbe + 1) * 4096, 23);
  const adaptive::StreamReport report = sender.send_all(data);
  ASSERT_EQ(report.blocks.size(), kSecondProbe + 1);
  for (const std::size_t probe : {kFirstProbe, kSecondProbe}) {
    EXPECT_EQ(report.blocks[probe].requested_method,
              MethodId::kBurrowsWheeler) << "block " << probe;
    EXPECT_TRUE(report.blocks[probe].fallback) << "block " << probe;
  }

  const adaptive::DegradationStats& d = sender.degradation();
  // Opening costs `threshold` consecutive failures; after that the method
  // is on probation, so each half-open probe that fails re-trips on ONE
  // failure instead of accumulating a fresh streak.
  EXPECT_GE(d.quarantines, 3u);
  EXPECT_EQ(d.codec_failures, kThreshold + (d.quarantines - 1));
  // Degradation never corrupts the stream.
  EXPECT_EQ(rx.receive_available(), data);
}

TEST_F(FaultTest, BreakerClosesWhenTheProbeSucceeds) {
  // Fails the first `threshold` compress calls, then delegates to the real
  // codec: the breaker must re-admit the method after one successful
  // half-open probe, and the receiver (which knows nothing of the flake)
  // keeps decoding standard frames.
  class FlakyCodec final : public Codec {
   public:
    explicit FlakyCodec(int* failures_left)
        : failures_left_(failures_left),
          inner_(make_codec(MethodId::kBurrowsWheeler)) {}
    MethodId id() const noexcept override {
      return MethodId::kBurrowsWheeler;
    }
    Bytes compress(ByteView input) override {
      if (*failures_left_ > 0) {
        --*failures_left_;
        throw DecodeError("codec warming up");
      }
      return inner_->compress(input);
    }
    Bytes decompress(ByteView input) override {
      return inner_->decompress(input);
    }

   private:
    int* failures_left_;
    CodecPtr inner_;
  };

  wire(100e3);
  adaptive::AdaptiveConfig config = small_blocks();
  config.target_rate_Bps = 1e12;
  adaptive::AdaptiveSender sender(duplex_->a(), config);
  static int failures_left = 0;
  failures_left = adaptive::kBreakerFailureThreshold;
  sender.registry().register_factory(MethodId::kBurrowsWheeler, [] {
    return CodecPtr(new FlakyCodec(&failures_left));
  });
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});

  constexpr std::size_t kProbe =
      adaptive::kBreakerFailureThreshold + adaptive::kBreakerCooldownBlocks;
  const Bytes data = testdata::repetitive_text((kProbe + 6) * 4096, 24);
  const adaptive::StreamReport report = sender.send_all(data);
  ASSERT_EQ(report.blocks.size(), kProbe + 6);

  const adaptive::DegradationStats& d = sender.degradation();
  EXPECT_EQ(d.quarantines, 1u);   // opened once, never re-tripped
  EXPECT_EQ(d.codec_failures,
            static_cast<std::uint64_t>(adaptive::kBreakerFailureThreshold));
  // After the successful probe the method is fully re-admitted.
  bool bw_after_probe = false;
  for (std::size_t i = kProbe; i < report.blocks.size(); ++i) {
    if (report.blocks[i].method == MethodId::kBurrowsWheeler) {
      bw_after_probe = true;
      EXPECT_FALSE(report.blocks[i].fallback);
    }
  }
  EXPECT_TRUE(bw_after_probe);
  EXPECT_EQ(rx.receive_available(), data);
}

TEST_F(FaultTest, ExpandingCodecFallsBackToNull) {
  wire(100e3);
  adaptive::AdaptiveConfig config = small_blocks();
  config.target_rate_Bps = 1e12;
  adaptive::AdaptiveSender sender(duplex_->a(), config);
  sender.registry().register_factory(
      MethodId::kBurrowsWheeler, [] { return CodecPtr(new ExpandingCodec); });
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});

  const Bytes data = testdata::random_bytes(2 * 4096, 22);
  const adaptive::StreamReport report = sender.send_all(data);
  ASSERT_GE(report.blocks.size(), 2u);
  EXPECT_TRUE(report.blocks[0].fallback);
  EXPECT_EQ(report.blocks[0].method, MethodId::kNone);
  // The wire never carries the expanded payload.
  EXPECT_LE(report.blocks[0].wire_size,
            4096 + frame_overhead_seq(4096, report.blocks[0].index));
  EXPECT_GE(sender.degradation().expansions, 1u);
  EXPECT_EQ(sender.degradation().codec_failures, 0u);
  EXPECT_EQ(rx.receive_available(), data);
}

TEST_F(FaultTest, FixedBaselinesNeverDegrade) {
  wire();
  adaptive::AdaptiveSender sender(duplex_->a(), small_blocks());
  sender.registry().register_factory(
      MethodId::kBurrowsWheeler, [] { return CodecPtr(new ThrowingCodec); });
  // The paper's always-BW baseline must stay BW — surfacing the failure,
  // not silently switching methods under the experiment.
  EXPECT_THROW(
      sender.send_all_fixed(testdata::low_entropy(1024, 23),
                            MethodId::kBurrowsWheeler),
      DecodeError);
  EXPECT_EQ(sender.degradation().fallbacks, 0u);
}

TEST_F(FaultTest, PipelinedSendDegradesSafely) {
  wire(100e3);
  adaptive::AdaptiveConfig config = small_blocks();
  config.target_rate_Bps = 1e12;
  config.worker_threads = 2;  // encodes overlap the send
  adaptive::AdaptiveSender sender(duplex_->a(), config);
  sender.registry().register_factory(
      MethodId::kBurrowsWheeler, [] { return CodecPtr(new ThrowingCodec); });
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});

  const Bytes data = testdata::repetitive_text(8 * 4096, 24);
  const adaptive::StreamReport report = sender.send_all(data);
  ASSERT_EQ(report.blocks.size(), 8u);
  EXPECT_GE(sender.degradation().codec_failures, 3u);
  EXPECT_GE(sender.degradation().quarantines, 1u);
  EXPECT_EQ(rx.receive_available(), data);
}

TEST(Telemetry, FallbacksSurfaceToTheAggregator) {
  echo::EventChannel channel("telemetry");
  adaptive::TelemetryPublisher publisher(channel);
  adaptive::TelemetryAggregator aggregator;
  std::optional<echo::Event> last;
  channel.subscribe([&](const echo::Event& event) {
    aggregator.observe(event);
    last = event;
  });

  adaptive::BlockReport degraded;
  degraded.method = MethodId::kNone;
  degraded.requested_method = MethodId::kBurrowsWheeler;
  degraded.fallback = true;
  publisher.publish(degraded);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->attributes.get_int("acex.t.fallback"), 1);
  EXPECT_EQ(last->attributes.get_string("acex.t.requested"),
            "burrows-wheeler");

  publisher.publish(adaptive::BlockReport{});
  EXPECT_EQ(aggregator.blocks(), 2u);
  EXPECT_EQ(aggregator.fallbacks(), 1u);
}

// ------------------------------------------- acceptance scenarios (§6)

TEST_F(FaultTest, SkipRecoversAlmostEverythingUnderFlipsAndDrops) {
  wire();
  transport::FaultConfig faults;
  faults.bit_flip_prob = 0.02;
  faults.drop_prob = 0.01;
  faults.seed = 7;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);

  adaptive::AdaptiveSender sender(lossy, small_blocks());
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});

  constexpr std::size_t kBlocks = 200, kBlockSize = 4096;
  const Bytes data = testdata::repetitive_text(kBlocks * kBlockSize, 31);
  const adaptive::StreamReport stream = sender.send_all(data);
  ASSERT_EQ(stream.blocks.size(), kBlocks);
  lossy.flush();

  const adaptive::ReceiveReport report = rx.receive_report();  // never throws
  const transport::FaultCounters& c = lossy.counters();
  EXPECT_EQ(c.messages, kBlocks);
  EXPECT_GT(c.bit_flips + c.drops, 0u);

  // Every frame that decoded must reproduce its exact slice of the input.
  std::size_t intact_bytes = 0;
  for (const adaptive::FrameOutcome& f : report.frames) {
    if (f.status != adaptive::FrameOutcome::Status::kOk) continue;
    ASSERT_TRUE(f.has_sequence);
    const ByteView slice = ByteView(data).subspan(
        static_cast<std::size_t>(f.sequence) * kBlockSize, kBlockSize);
    EXPECT_EQ(f.data, Bytes(slice.begin(), slice.end()))
        << "seq " << f.sequence;
    intact_bytes += f.data.size();
  }
  EXPECT_EQ(report.bytes_recovered, intact_bytes);
  // The headline number: >= 95% of the payload survives a 2%/1% hostile
  // link with no NACK round and zero crashes.
  EXPECT_GE(report.bytes_recovered,
            static_cast<std::size_t>(0.95 * static_cast<double>(data.size())));
  // Gap accounting stays consistent: gaps and intact frames never overlap
  // and never name sequences outside the stream.
  EXPECT_LE(report.gaps.size() + report.frames_ok, kBlocks);
  for (const std::uint64_t gap : report.gaps) EXPECT_LT(gap, kBlocks);
}

TEST_F(FaultTest, NackRecoversEveryBlockWithinRetryCap) {
  wire();
  transport::FaultConfig faults;
  faults.bit_flip_prob = 0.02;
  faults.drop_prob = 0.01;
  faults.seed = 11;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);

  adaptive::AdaptiveConfig config = small_blocks();
  config.retransmit_capacity = 256;  // keep every frame replayable
  config.retransmit_max_retries = 4;
  adaptive::AdaptiveSender sender(lossy, config);
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kNack, 3});

  constexpr std::size_t kBlocks = 200, kBlockSize = 4096;
  const Bytes data = testdata::repetitive_text(kBlocks * kBlockSize, 32);
  ASSERT_EQ(sender.send_all(data).blocks.size(), kBlocks);
  lossy.flush();

  std::map<std::uint64_t, Bytes> recovered;
  const auto absorb = [&](const adaptive::ReceiveReport& report) {
    for (const adaptive::FrameOutcome& f : report.frames) {
      if (f.status == adaptive::FrameOutcome::Status::kOk) {
        recovered.emplace(f.sequence, f.data);
      }
    }
  };
  absorb(rx.receive_report());

  // The NACK loop: faults stay ON — retransmits run the same gauntlet.
  for (int round = 0; round < 8; ++round) {
    const std::vector<std::uint64_t> nacks = rx.take_nacks();
    if (nacks.empty()) break;
    sender.retransmit(nacks);
    lossy.flush();
    absorb(rx.receive_report());
  }

  ASSERT_EQ(recovered.size(), kBlocks);  // 100% of blocks, within the caps
  EXPECT_EQ(rx.nacks_abandoned(), 0u);
  EXPECT_GT(sender.degradation().retransmits, 0u);
  Bytes reassembled;
  for (const auto& [seq, block] : recovered) {
    reassembled.insert(reassembled.end(), block.begin(), block.end());
  }
  EXPECT_EQ(reassembled, data);
}

TEST_F(FaultTest, NackReplayInterleavedWithFreshTrafficConverges) {
  // The concurrent-recovery corner: retransmitted frames are queued while
  // later batches of fresh, higher-sequence frames enter the same faulty
  // pipe (no flush between them), so replays and new traffic interleave —
  // and the replays run the fault gauntlet again. The receiver must keep
  // ordering straight and still converge to 100% recovery within the caps.
  wire();
  transport::FaultConfig faults;
  faults.drop_prob = 0.08;
  faults.reorder_prob = 0.1;
  faults.bit_flip_prob = 0.02;
  faults.seed = 51;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);

  adaptive::AdaptiveConfig config = small_blocks();
  config.retransmit_capacity = 512;
  config.retransmit_max_retries = 6;
  adaptive::AdaptiveSender sender(lossy, config);
  adaptive::AdaptiveReceiver rx(duplex_->b(),
                                {adaptive::RecoveryPolicy::kNack, 5});

  constexpr std::size_t kBatches = 6, kBlocksPerBatch = 24, kBlockSize = 4096;
  Bytes everything;
  std::map<std::uint64_t, Bytes> recovered;
  const auto absorb = [&](const adaptive::ReceiveReport& report) {
    for (const adaptive::FrameOutcome& f : report.frames) {
      if (f.status == adaptive::FrameOutcome::Status::kOk) {
        recovered.emplace(f.sequence, f.data);
      }
    }
  };

  bool replayed_midstream = false;
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    const Bytes data =
        testdata::repetitive_text(kBlocksPerBatch * kBlockSize, 60 + batch);
    everything.insert(everything.end(), data.begin(), data.end());
    ASSERT_EQ(sender.send_all(data).blocks.size(), kBlocksPerBatch);
    lossy.flush();
    absorb(rx.receive_report());
    const std::vector<std::uint64_t> nacks = rx.take_nacks();
    if (!nacks.empty()) {
      // Deliberately no flush here: these replays ride alongside the next
      // batch's fresh frames (reorder holds can interleave the two).
      sender.retransmit(nacks);
      if (batch + 1 < kBatches) replayed_midstream = true;
    }
  }
  EXPECT_TRUE(replayed_midstream);  // the corner actually got exercised

  // Drain: plain NACK rounds until the stream is whole.
  for (int round = 0; round < 12; ++round) {
    lossy.flush();
    absorb(rx.receive_report());
    const std::vector<std::uint64_t> nacks = rx.take_nacks();
    if (nacks.empty()) break;
    sender.retransmit(nacks);
  }

  ASSERT_EQ(recovered.size(), kBatches * kBlocksPerBatch);
  EXPECT_EQ(rx.nacks_abandoned(), 0u);
  EXPECT_GT(sender.degradation().retransmits, 0u);
  Bytes reassembled;
  for (const auto& [seq, block] : recovered) {
    reassembled.insert(reassembled.end(), block.begin(), block.end());
  }
  EXPECT_EQ(reassembled, everything);
}

// --------------------------------------------------- echo bridge NACKs

TEST_F(FaultTest, BridgeNackRoundTripRedeliversLostEvents) {
  wire();
  transport::FaultConfig faults;
  faults.drop_prob = 0.25;
  faults.duplicate_prob = 0.25;
  faults.seed = 5;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);

  echo::EventChannel producer("remote"), consumer("local");
  echo::ChannelSender sender(producer, lossy, /*ring_capacity=*/64,
                             /*max_retries=*/3);
  echo::ChannelReceiver receiver(consumer, duplex_->b(), /*nack_retry_cap=*/3);

  std::vector<std::string> got;
  consumer.subscribe([&](const echo::Event& event) {
    got.emplace_back(event.payload.begin(), event.payload.end());
  });

  constexpr int kEvents = 20;
  for (int i = 0; i < kEvents; ++i) {
    const std::string text = "event-" + std::to_string(i);
    producer.submit(echo::Event(Bytes(text.begin(), text.end())));
  }
  lossy.flush();
  receiver.poll();
  EXPECT_LT(got.size(), static_cast<std::size_t>(kEvents));  // losses happened

  lossy.set_config({});  // link heals; NACK rounds run clean
  for (int round = 0; round < 4 && receiver.signal_nacks() > 0; ++round) {
    sender.pump_control();  // services the NACK from the retransmit ring
    receiver.poll();
  }

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kEvents));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::unique(got.begin(), got.end()), got.end());  // exactly once
  EXPECT_TRUE(receiver.missing().empty());
  EXPECT_GT(sender.events_retransmitted(), 0u);
  EXPECT_GT(receiver.nacks_signalled(), 0u);
  // Every duplicate the link emitted was recognised and dropped.
  EXPECT_GE(lossy.counters().duplicates, 1u);
  EXPECT_GE(receiver.duplicates_dropped(), 1u);
}

TEST_F(FaultTest, BridgeAbandonsEventsPastTheRetryCap) {
  wire();
  echo::EventChannel producer("remote"), consumer("local");
  // Ring of 1: forwarding a second event evicts the first, so a NACK for
  // it can never be honoured.
  echo::ChannelSender sender(producer, duplex_->a(), /*ring_capacity=*/1,
                             /*max_retries=*/3);
  echo::ChannelReceiver receiver(consumer, duplex_->b(), /*nack_retry_cap=*/2);

  producer.submit(echo::Event(Bytes{1}));
  (void)duplex_->b().receive();  // event 0 vanishes in transit
  producer.submit(echo::Event(Bytes{2}));
  receiver.poll();
  EXPECT_EQ(receiver.missing(), (std::vector<std::uint64_t>{0}));

  EXPECT_EQ(receiver.signal_nacks(), 1u);
  sender.pump_control();
  receiver.poll();
  EXPECT_EQ(receiver.signal_nacks(), 1u);  // second (and last) attempt
  sender.pump_control();
  receiver.poll();
  EXPECT_EQ(receiver.signal_nacks(), 0u);  // cap reached: lost for good
  EXPECT_GE(sender.nacks_refused(), 1u);

  // Abandonment settles the sequence: the delivery cursor skips it, so
  // later traffic keeps flowing instead of wedging against the dead gap.
  EXPECT_EQ(receiver.events_abandoned(), 1u);
  EXPECT_TRUE(receiver.missing().empty());
  producer.submit(echo::Event(Bytes{3}));  // seq 2
  receiver.poll();
  EXPECT_EQ(receiver.events_received(), 2u);  // seq 1 and seq 2 delivered
  EXPECT_TRUE(receiver.missing().empty());
}

TEST_F(FaultTest, BridgeIgnoresCorruptSequenceHeaders) {
  wire();
  echo::EventChannel producer("remote"), consumer("local");
  echo::ChannelSender sender(producer, duplex_->a());
  echo::ChannelReceiver receiver(consumer, duplex_->b());

  producer.submit(echo::Event(Bytes{1}));  // seq 0

  // A flipped continuation bit in the sequence varint yields a huge value.
  // Variant 1: the body after the (mis-)parsed varint is garbage and its
  // CRC does not match.
  Bytes forged_bad_body;
  forged_bad_body.push_back(3);  // kMsgEventSeqCrc
  put_varint(forged_bad_body, (1ull << 59));
  forged_bad_body.insert(forged_bad_body.end(), {0xFF, 0, 0, 0, 0});
  duplex_->a().send(forged_bad_body);
  // Variant 2: the body deserializes fine and the CRC matches, but the
  // sequence is implausibly far ahead of the delivery cursor — rejected by
  // the gap-window clamp.
  duplex_->a().send(seq_crc_envelope(
      UINT64_MAX, echo::serialize_event(echo::Event(Bytes{9}))));

  producer.submit(echo::Event(Bytes{2}));  // seq 1

  receiver.poll();
  EXPECT_EQ(receiver.events_received(), 2u);
  EXPECT_EQ(receiver.corrupt_dropped(), 2u);
  // Neither forged sequence may poison gap tracking: missing() stays empty
  // instead of enumerating billions of phantom sequences (or hanging).
  EXPECT_TRUE(receiver.missing().empty());
  EXPECT_EQ(receiver.signal_nacks(), 0u);
}

TEST_F(FaultTest, BridgeCountsRetiredEnvelopesAsCorrupt) {
  wire();
  echo::EventChannel producer("remote"), consumer("local");
  echo::ChannelSender sender(producer, duplex_->a());
  echo::ChannelReceiver receiver(consumer, duplex_->b());
  std::vector<Bytes> delivered;
  consumer.subscribe(
      [&](const echo::Event& e) { delivered.push_back(e.payload); });

  // Kind 0 (no sequence) and kind 2 (sequence, no CRC) carry nothing that
  // could tell a flipped body bit from a genuine event.
  const Bytes body = echo::serialize_event(echo::Event(Bytes{7}));
  Bytes unsequenced{0};
  unsequenced.insert(unsequenced.end(), body.begin(), body.end());
  Bytes unchecked{2};
  put_varint(unchecked, 0);
  unchecked.insert(unchecked.end(), body.begin(), body.end());
  duplex_->a().send(unsequenced);
  duplex_->a().send(unchecked);
  EXPECT_EQ(receiver.poll(), 0u);
  EXPECT_EQ(receiver.events_received(), 0u);
  EXPECT_EQ(receiver.corrupt_dropped(), 2u);
  EXPECT_TRUE(delivered.empty());
  EXPECT_TRUE(receiver.missing().empty());

  // Sequence 0 is still unused: the genuine event carrying it is
  // delivered, not dropped as a duplicate of the kind-2 message.
  producer.submit(echo::Event(Bytes{1}));
  EXPECT_EQ(receiver.poll(), 1u);
  EXPECT_EQ(receiver.duplicates_dropped(), 0u);
  EXPECT_EQ(delivered, std::vector<Bytes>{Bytes{1}});
}

TEST_F(FaultTest, BridgeReceiverRejectsZeroGapWindow) {
  wire();
  echo::EventChannel consumer("local");
  EXPECT_THROW(echo::ChannelReceiver(consumer, duplex_->b(), 3, 0),
               ConfigError);
}

TEST_F(FaultTest, BridgeControlPumpSurvivesCorruptMessages) {
  wire();
  echo::EventChannel producer("remote"), consumer("local");
  echo::ChannelSender sender(producer, duplex_->a());
  echo::ChannelReceiver receiver(consumer, duplex_->b());

  std::vector<echo::AttributeMap> controls;
  producer.on_control(
      [&](const echo::AttributeMap& a) { controls.push_back(a); });

  duplex_->b().send(Bytes{});               // empty message
  duplex_->b().send(Bytes{1, 0xFF, 0xFF});  // kMsgControl + truncated varint
  echo::AttributeMap attrs;
  attrs.set_string("app.key", "value");
  receiver.signal_control(attrs);

  // Corruption on the control path must not kill the producer's pump loop:
  // the damaged messages are counted, the intact one still applies.
  std::size_t applied = 0;
  EXPECT_NO_THROW(applied = sender.pump_control());
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(sender.control_corrupt_dropped(), 2u);
  ASSERT_EQ(controls.size(), 1u);
  EXPECT_EQ(controls[0].get_string("app.key"), "value");
}

TEST_F(FaultTest, BridgeForwardsAppAttributesRidingWithANack) {
  wire();
  echo::EventChannel producer("remote"), consumer("local");
  echo::ChannelSender sender(producer, duplex_->a());
  echo::ChannelReceiver receiver(consumer, duplex_->b());

  std::vector<echo::AttributeMap> controls;
  producer.on_control(
      [&](const echo::AttributeMap& a) { controls.push_back(a); });

  producer.submit(echo::Event(Bytes{1}));  // seq 0, retained in the ring
  (void)duplex_->b().receive();            // ...but lost in transit
  producer.submit(echo::Event(Bytes{2}));  // seq 1
  receiver.poll();
  EXPECT_EQ(receiver.missing(), (std::vector<std::uint64_t>{0}));

  // One control message carrying both the NACK payload and an application
  // attribute: the NACK is serviced AND the attribute reaches the
  // producer's control sinks (minus the bridge-internal key).
  Bytes seqs;
  put_varint(seqs, 0);
  echo::AttributeMap attrs;
  attrs.set_bytes(echo::kNackAttr, seqs);
  attrs.set_string("app.key", "v");
  receiver.signal_control(attrs);

  EXPECT_EQ(sender.pump_control(), 1u);
  receiver.poll();
  EXPECT_TRUE(receiver.missing().empty());  // seq 0 replayed and delivered
  EXPECT_EQ(sender.events_retransmitted(), 1u);
  ASSERT_EQ(controls.size(), 1u);
  EXPECT_FALSE(controls[0].has(echo::kNackAttr));
  EXPECT_EQ(controls[0].get_string("app.key"), "v");
}

}  // namespace
}  // namespace acex
