#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "compress/frame.hpp"
#include "netsim/link.hpp"
#include "qa/chaos.hpp"
#include "session/budget.hpp"
#include "session/client.hpp"
#include "session/deadline.hpp"
#include "session/manager.hpp"
#include "session/reconnect.hpp"
#include "session/wire.hpp"
#include "testdata.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace acex::session {
namespace {

/// Thread-safe frame sink: egress accumulation tests never pump it, the
/// recovery tests pump into it and only care that frames left the queue.
class SinkTransport final : public transport::Transport {
 public:
  void send(ByteView message) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++frames_;
    bytes_ += message.size();
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }

  std::uint64_t frames() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  MonotonicClock clock_;
};

netsim::LinkParams flat(double bandwidth_Bps = 1e6) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bandwidth_Bps;
  p.jitter_frac = 0;
  return p;
}

/// One clean simulated endpoint: broker/manager writes into a(), the
/// session client drains b().
struct SimEndpoint {
  explicit SimEndpoint(VirtualClock& clock, double bandwidth_Bps = 1e6,
                       std::uint64_t seed = 1)
      : forward(flat(bandwidth_Bps), seed),
        reverse(flat(bandwidth_Bps), seed + 1000),
        duplex(forward, reverse, clock) {}

  netsim::SimLink forward;
  netsim::SimLink reverse;
  transport::SimDuplex duplex;
};

Bytes incompressible_block(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  return rng.bytes(size);
}

// ------------------------------------------------------------- deadlines

TEST(SessionDeadline, DefaultUnarmedNeverExpires) {
  VirtualClock clock;
  Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired(clock));
  clock.advance(1e9);
  EXPECT_FALSE(d.expired(clock));
  EXPECT_EQ(d.when(), std::numeric_limits<Seconds>::infinity());
  EXPECT_EQ(d.remaining(clock), std::numeric_limits<Seconds>::infinity());
}

TEST(SessionDeadline, ArmsExpiresExtendsAndDisarms) {
  VirtualClock clock;
  Deadline d(clock, 2.0);
  EXPECT_TRUE(d.armed());
  EXPECT_FALSE(d.expired(clock));
  EXPECT_DOUBLE_EQ(d.remaining(clock), 2.0);

  clock.advance(1.5);
  EXPECT_FALSE(d.expired(clock));
  d.extend(clock, 2.0);  // heartbeat: horizon pushed out from NOW
  clock.advance(1.0);
  EXPECT_FALSE(d.expired(clock));
  clock.advance(1.0);
  EXPECT_TRUE(d.expired(clock));
  EXPECT_LE(d.remaining(clock), 0.0);

  d.disarm();
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired(clock));
}

// ------------------------------------------------------------- reconnect

TEST(SessionReconnect, FirstDelayIsExactlyTheBase) {
  ReconnectPolicy policy;
  const auto d = policy.next_delay();
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, policy.config().base_delay);
  EXPECT_EQ(policy.attempts(), 1u);
}

TEST(SessionReconnect, DelaysStayInsideTheDecorrelatedJitterEnvelope) {
  ReconnectConfig config;
  config.base_delay = 0.1;
  config.max_delay = 1.0;
  config.max_attempts = 0;  // never exhaust
  ReconnectPolicy policy(config, 99);

  Seconds prev = *policy.next_delay();
  EXPECT_DOUBLE_EQ(prev, config.base_delay);
  for (int i = 0; i < 200; ++i) {
    const auto d = policy.next_delay();
    ASSERT_TRUE(d.has_value());
    const Seconds ceiling = std::min(config.max_delay, prev * 3);
    EXPECT_GE(*d, config.base_delay - 1e-12);
    EXPECT_LE(*d, ceiling + 1e-12);
    EXPECT_LE(*d, config.max_delay + 1e-12);
    prev = *d;
  }
}

TEST(SessionReconnect, ExhaustsAfterMaxAttemptsAndResetsOnSuccess) {
  ReconnectConfig config;
  config.max_attempts = 3;
  ReconnectPolicy policy(config, 7);
  EXPECT_TRUE(policy.next_delay().has_value());
  EXPECT_TRUE(policy.next_delay().has_value());
  EXPECT_TRUE(policy.next_delay().has_value());
  EXPECT_TRUE(policy.exhausted());
  EXPECT_FALSE(policy.next_delay().has_value());
  EXPECT_EQ(policy.attempts(), 3u);

  policy.reset();
  EXPECT_FALSE(policy.exhausted());
  EXPECT_EQ(policy.attempts(), 0u);
  const auto d = policy.next_delay();
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, config.base_delay);  // schedule restarts from scratch
}

TEST(SessionReconnect, DeterministicForAGivenSeed) {
  ReconnectConfig config;
  config.max_attempts = 0;
  ReconnectPolicy a(config, 42), b(config, 42);
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(*a.next_delay(), *b.next_delay());
  }
}

TEST(SessionReconnect, RejectsDegenerateConfig) {
  ReconnectConfig bad;
  bad.base_delay = 0;
  EXPECT_THROW(ReconnectPolicy{bad}, ConfigError);
  bad.base_delay = 2.0;
  bad.max_delay = 1.0;
  EXPECT_THROW(ReconnectPolicy{bad}, ConfigError);
}

// ---------------------------------------------------------------- budget

BudgetConfig thousand_byte_budget() {
  BudgetConfig config;
  config.limit_bytes = 1000;
  return config;
}

TEST(SessionBudget, WalksTheLadderInOrder) {
  MemoryBudget budget(thousand_byte_budget());
  EXPECT_EQ(budget.stage(), DegradationStage::kNormal);
  EXPECT_EQ(budget.refresh_with(599), DegradationStage::kNormal);
  EXPECT_EQ(budget.refresh_with(600), DegradationStage::kCheaperCodec);
  EXPECT_EQ(budget.refresh_with(750), DegradationStage::kNullCodec);
  EXPECT_EQ(budget.refresh_with(850), DegradationStage::kDropOldest);
  EXPECT_EQ(budget.refresh_with(920), DegradationStage::kShedParked);
  EXPECT_EQ(budget.refresh_with(970), DegradationStage::kRefuseNew);
  EXPECT_EQ(budget.stage_changes(), 5u);
  EXPECT_EQ(budget.used_bytes(), 970u);
}

TEST(SessionBudget, SpikeEscalatesStraightToTheTopStage) {
  MemoryBudget budget(thousand_byte_budget());
  // Overload protection must not climb one rung per refresh.
  EXPECT_EQ(budget.refresh_with(2000), DegradationStage::kRefuseNew);
  EXPECT_EQ(budget.stage_changes(), 1u);
}

TEST(SessionBudget, HysteresisHoldsTheStageThroughBoundaryDither) {
  MemoryBudget budget(thousand_byte_budget());
  EXPECT_EQ(budget.refresh_with(610), DegradationStage::kCheaperCodec);
  ASSERT_EQ(budget.stage_changes(), 1u);
  // 100+ refreshes dithering around the entry threshold, all above the
  // de-escalation point (600 - 80 = 520): the ladder must not flap.
  for (int i = 0; i < 120; ++i) {
    const std::size_t used = (i % 2 == 0) ? 590 : 610;
    EXPECT_EQ(budget.refresh_with(used), DegradationStage::kCheaperCodec);
  }
  EXPECT_EQ(budget.stage_changes(), 1u);
  // Clearly below the margin: full recovery in one step.
  EXPECT_EQ(budget.refresh_with(500), DegradationStage::kNormal);
  EXPECT_EQ(budget.stage_changes(), 2u);
}

TEST(SessionBudget, DeEscalationWaitsForTheMarginOfTheCurrentStage) {
  MemoryBudget budget(thousand_byte_budget());
  EXPECT_EQ(budget.refresh_with(980), DegradationStage::kRefuseNew);
  // Below the top entry threshold but not below 970 - 80 = 890: hold.
  EXPECT_EQ(budget.refresh_with(900), DegradationStage::kRefuseNew);
  // Once clearly below the margin, de-escalation goes straight to the
  // stage the usage actually calls for — no rung-at-a-time lag.
  EXPECT_EQ(budget.refresh_with(889), DegradationStage::kDropOldest);
  EXPECT_EQ(budget.refresh_with(100), DegradationStage::kNormal);
}

TEST(SessionBudget, SumsProbesOnRefresh) {
  MemoryBudget budget(thousand_byte_budget());
  budget.add_probe("a", [] { return std::size_t{400}; });
  budget.add_probe("b", [] { return std::size_t{300}; });
  EXPECT_EQ(budget.refresh(), DegradationStage::kCheaperCodec);
  EXPECT_EQ(budget.used_bytes(), 700u);
  budget.remove_probe("b");
  EXPECT_EQ(budget.refresh(), DegradationStage::kNormal);
  EXPECT_EQ(budget.used_bytes(), 400u);
  EXPECT_THROW(budget.add_probe("bad", nullptr), ConfigError);
}

TEST(SessionBudget, RejectsDegenerateConfig) {
  BudgetConfig bad;
  bad.limit_bytes = 0;
  EXPECT_THROW(MemoryBudget{bad}, ConfigError);
  bad = BudgetConfig{};
  bad.enter_null = bad.enter_cheaper;  // not strictly increasing
  EXPECT_THROW(MemoryBudget{bad}, ConfigError);
  bad = BudgetConfig{};
  bad.hysteresis = bad.enter_cheaper;  // would allow negative floor
  EXPECT_THROW(MemoryBudget{bad}, ConfigError);
}

// ------------------------------------------------------------------ wire

TEST(SessionWire, RoundTripsEveryField) {
  ControlMsg msg;
  msg.kind = ControlKind::kResume;
  msg.session_id = 0x1234567890ull;
  msg.token = ~0ull;
  msg.resume_from = 77;
  msg.reason = "rejoining after a partition";
  EXPECT_EQ(control_decode(control_encode(msg)), msg);

  ControlMsg plain;  // defaults round-trip too
  EXPECT_EQ(control_decode(control_encode(plain)), plain);
}

TEST(SessionWire, RejectsTruncationBadMagicAndBitFlips) {
  ControlMsg msg;
  msg.kind = ControlKind::kResumeFail;
  msg.session_id = 9;
  msg.reason = "gap evicted";
  const Bytes wire = control_encode(msg);

  EXPECT_THROW(control_decode(ByteView{}), DecodeError);
  EXPECT_THROW(
      control_decode(ByteView(wire.data(), wire.size() - 1)), DecodeError);

  Bytes bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(control_decode(bad_magic), DecodeError);

  // Any single bit flip must fail the CRC.
  for (std::size_t i = 1; i < wire.size(); ++i) {
    Bytes flipped = wire;
    flipped[i] ^= 0x01;
    EXPECT_THROW(control_decode(flipped), DecodeError) << "byte " << i;
  }
}

TEST(SessionWire, RidesTheEchoAttributeMap) {
  ControlMsg msg;
  msg.kind = ControlKind::kHeartbeat;
  msg.session_id = 3;
  msg.token = 0xBEEF;
  const echo::AttributeMap attrs = control_attributes(msg);
  const auto back = control_from_attributes(attrs);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, msg);

  EXPECT_FALSE(control_from_attributes(echo::AttributeMap{}).has_value());
}

// ------------------------------------------------------------- lifecycle

SessionConfig quick_session() {
  SessionConfig config;
  config.liveness_timeout = 1.0;
  config.suspect_grace = 0.5;
  config.park_grace = 2.0;
  config.heartbeat_interval = 0.25;
  return config;
}

TEST(SessionLifecycle, HeartbeatsKeepTheSessionLive) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, quick_session());
  ASSERT_TRUE(cr.accepted);
  EXPECT_GT(cr.token, 0u);
  EXPECT_DOUBLE_EQ(cr.heartbeat_interval, 0.25);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);

  for (int i = 0; i < 8; ++i) {
    clock.advance(0.8);  // inside the liveness window every time
    EXPECT_TRUE(manager.heartbeat(cr.session_id, cr.token));
    const TickReport tick = manager.tick();
    EXPECT_EQ(tick.suspects, 0u);
  }
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);
  EXPECT_EQ(manager.counters().heartbeats, 8u);
  EXPECT_EQ(manager.live_count(), 1u);
}

TEST(SessionLifecycle, MissedHeartbeatsWalkSuspectParkedExpired) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, quick_session());
  ASSERT_TRUE(cr.accepted);

  clock.advance(1.1);  // past liveness_timeout
  TickReport tick = manager.tick();
  EXPECT_EQ(tick.suspects, 1u);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kSuspect);
  // A suspect is still reachable: one heartbeat rescues it.
  EXPECT_TRUE(manager.heartbeat(cr.session_id, cr.token));
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);

  clock.advance(1.1);
  manager.tick();  // suspect again
  clock.advance(0.6);  // past suspect_grace
  tick = manager.tick();
  EXPECT_EQ(tick.parks, 1u);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kParked);
  EXPECT_EQ(manager.parked_count(), 1u);
  // Parked state cannot be heartbeaten back — it has no transport.
  EXPECT_FALSE(manager.heartbeat(cr.session_id, cr.token));

  clock.advance(2.1);  // past park_grace
  tick = manager.tick();
  EXPECT_EQ(tick.expired, 1u);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kExpired);
  EXPECT_EQ(manager.live_count(), 0u);
  EXPECT_EQ(manager.parked_count(), 0u);

  const SessionCounters c = manager.counters();
  EXPECT_EQ(c.suspects, 2u);
  EXPECT_EQ(c.parks, 1u);
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.shed, 0u);
}

TEST(SessionLifecycle, RejectsBadTokensAndUnknownIds) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, quick_session());
  EXPECT_FALSE(manager.heartbeat(cr.session_id, cr.token + 1));
  EXPECT_FALSE(manager.heartbeat(cr.session_id + 99, cr.token));
  EXPECT_THROW(manager.state(cr.session_id + 99), ConfigError);

  SinkTransport other;
  const ResumeResult r =
      manager.resume(cr.session_id, cr.token + 1, 0, other);
  EXPECT_EQ(r.status, ResumeResult::Status::kRejected);
  EXPECT_FALSE(r.reason.empty());
  EXPECT_EQ(manager.counters().resumes, 0u);
}

TEST(SessionLifecycle, ControlPathAnswersHeartbeatAndBye) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, quick_session());

  ControlMsg hb;
  hb.kind = ControlKind::kHeartbeat;
  hb.session_id = cr.session_id;
  hb.token = cr.token;
  ControlMsg ack = control_decode(manager.handle_control(control_encode(hb)));
  EXPECT_EQ(ack.kind, ControlKind::kHeartbeat);

  hb.token = cr.token + 1;  // bad credential: typed refusal, not silence
  ack = control_decode(manager.handle_control(control_encode(hb)));
  EXPECT_EQ(ack.kind, ControlKind::kResumeFail);

  ControlMsg bye;
  bye.kind = ControlKind::kBye;
  bye.session_id = cr.session_id;
  ack = control_decode(manager.handle_control(control_encode(bye)));
  EXPECT_EQ(ack.kind, ControlKind::kBye);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kParked);

  // kResume cannot ride the transportless path.
  ControlMsg res;
  res.kind = ControlKind::kResume;
  ack = control_decode(manager.handle_control(control_encode(res)));
  EXPECT_EQ(ack.kind, ControlKind::kResumeFail);
}

// ---------------------------------------------------------------- resume

/// Drain everything currently deliverable to the client, advancing the
/// virtual clock so SimLink actually surfaces the frames.
Bytes drain(VirtualClock& clock, SessionManager& manager, SessionId id,
            SessionClient& client) {
  Bytes out;
  for (int i = 0; i < 8; ++i) {
    manager.pump(id);
    clock.advance(0.05);
    const Bytes got = client.receiver()->receive_available();
    out.insert(out.end(), got.begin(), got.end());
  }
  return out;
}

TEST(SessionResume, ReplaysTheGapByteIdentically) {
  VirtualClock clock;
  SessionManager manager(clock);
  auto ep = std::make_unique<SimEndpoint>(clock, 1e6, 5);
  SessionConfig sc = quick_session();
  sc.subscriber.adaptive.decision.block_size = 4096;
  const ConnectResult cr = manager.connect(ep->duplex.a(), sc);
  ASSERT_TRUE(cr.accepted);

  SessionClient client(clock);
  client.on_connected(cr.session_id, cr.token, ep->duplex.b(),
                      cr.heartbeat_interval);
  ASSERT_TRUE(client.connected());

  Bytes expected;
  const auto publish_one = [&](std::uint64_t seed) {
    const Bytes block = testdata::low_entropy(2048, seed);
    expected.insert(expected.end(), block.begin(), block.end());
    manager.publish(block);
  };

  for (std::uint64_t s = 0; s < 3; ++s) publish_one(s);
  Bytes delivered = drain(clock, manager, cr.session_id, client);
  EXPECT_EQ(delivered.size(), 3u * 2048);
  EXPECT_EQ(client.resume_from(), 3u);

  // The link dies. The server parks; the client keeps its cursor.
  client.on_dropped();
  ASSERT_TRUE(manager.disconnect(cr.session_id));
  EXPECT_FALSE(client.connected());
  ASSERT_TRUE(client.next_retry_delay().has_value());

  // Three more blocks fan out while this session is parked: they reach the
  // retransmit ring, not the dead link.
  for (std::uint64_t s = 3; s < 6; ++s) publish_one(s);

  // Reconnect on a brand-new endpoint; resume from the client's cursor.
  auto ep2 = std::make_unique<SimEndpoint>(clock, 1e6, 17);
  const ResumeResult rr = manager.resume(cr.session_id, cr.token,
                                         client.resume_from(), ep2->duplex.a());
  ASSERT_EQ(rr.status, ResumeResult::Status::kResumed) << rr.reason;
  EXPECT_EQ(rr.replayed, 3u);
  client.on_resumed(ep2->duplex.b(), cr.token);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.reconnect_attempts(), 0u);  // backoff reset on success

  ep.reset();  // the old endpoint is gone for good; nothing may touch it
  const Bytes resumed = drain(clock, manager, cr.session_id, client);
  delivered.insert(delivered.end(), resumed.begin(), resumed.end());

  // The acceptance bar: byte-identical to a stream that never dropped —
  // zero lost, zero duplicated.
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(client.receiver()->frames_duplicate(), 0u);
  EXPECT_EQ(manager.counters().resumes, 1u);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);
}

TEST(SessionResume, DowngradesToRestartWhenTheRingEvictedTheGap) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  SessionConfig sc = quick_session();
  sc.subscriber.adaptive.retransmit_capacity = 2;  // tiny history on purpose
  const ConnectResult cr = manager.connect(sink, sc);
  ASSERT_TRUE(cr.accepted);
  ASSERT_TRUE(manager.disconnect(cr.session_id));

  // Six blocks published while parked, a two-frame ring: [0, 4) is gone.
  for (std::uint64_t s = 0; s < 6; ++s) {
    manager.publish(testdata::low_entropy(1024, s));
  }

  SinkTransport fresh;
  const ResumeResult rr = manager.resume(cr.session_id, cr.token, 0, fresh);
  EXPECT_EQ(rr.status, ResumeResult::Status::kRestart);
  EXPECT_FALSE(rr.reason.empty());
  // The incarnation is dead — resume must never wedge it half-attached.
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kExpired);
  EXPECT_EQ(manager.counters().restarts, 1u);
  EXPECT_EQ(manager.counters().expired, 1u);

  // A second resume attempt on the tombstone stays a clean restart.
  const ResumeResult again =
      manager.resume(cr.session_id, cr.token, 0, fresh);
  EXPECT_EQ(again.status, ResumeResult::Status::kRestart);
  EXPECT_EQ(manager.counters().restarts, 2u);
}

/// Forwards every message except the `drop_index`-th one sent through it.
class DropOneTransport final : public transport::Transport {
 public:
  DropOneTransport(transport::Transport& inner, std::uint64_t drop_index)
      : inner_(&inner), drop_index_(drop_index) {}
  void send(ByteView message) override {
    if (sent_++ != drop_index_) inner_->send(message);
  }
  std::optional<Bytes> receive() override { return inner_->receive(); }
  const Clock& clock() const override { return inner_->clock(); }

 private:
  transport::Transport* inner_;
  std::uint64_t drop_index_;
  std::uint64_t sent_ = 0;
};

/// A live session over a link that loses frame 1 in transit, with a
/// 4-frame ring and a receiver whose gap window is 16 (so a gap settles
/// once the stream runs 8 past it), plus helpers to publish and drain.
struct LossySession {
  LossySession() {
    SessionConfig sc = quick_session();
    sc.subscriber.adaptive.decision.block_size = 4096;
    sc.subscriber.adaptive.retransmit_capacity = 4;
    cr = manager.connect(lossy, sc);
    client.on_connected(cr.session_id, cr.token, ep->duplex.b(),
                        cr.heartbeat_interval);
  }

  void publish(int n) {
    for (int i = 0; i < n; ++i) {
      blocks.push_back(testdata::low_entropy(2048, blocks.size()));
      manager.publish(blocks.back());
    }
  }
  void drain() {
    for (int i = 0; i < 8; ++i) {
      manager.pump(cr.session_id);
      clock.advance(0.05);
      for (adaptive::FrameOutcome& f :
           client.receiver()->receive_report().frames) {
        if (f.status != adaptive::FrameOutcome::Status::kOk) continue;
        EXPECT_TRUE(got.emplace(f.sequence, std::move(f.data)).second);
      }
    }
  }
  /// NACK rounds the sender cannot answer yet (a replay stuck behind a
  /// backlog, or a frame the ring evicted), until the receiver stops.
  int unanswered_nack_rounds() {
    int rounds = 0;
    while (!client.receiver()->take_nacks().empty() && rounds < 8) {
      ++rounds;
      drain();
    }
    return rounds;
  }

  VirtualClock clock;
  SessionManager manager{clock};
  std::unique_ptr<SimEndpoint> ep = std::make_unique<SimEndpoint>(clock, 1e6, 5);
  DropOneTransport lossy{ep->duplex.a(), 1};
  SessionClient client{
      clock, ClientConfig{.receiver = {adaptive::RecoveryPolicy::kNack, 3, 16}}};
  ConnectResult cr;
  std::vector<Bytes> blocks;
  std::map<std::uint64_t, Bytes> got;
};

TEST(SessionResume, ALateReplayPastTheRetryBudgetIsStillDelivered) {
  // Every NACK round for frame 1 goes unanswered while the receiver polls
  // on; its replay then arrives after the receiver gave it up.
  LossySession s;
  s.publish(4);
  s.drain();
  EXPECT_EQ(s.unanswered_nack_rounds(), 3);  // the whole retry budget
  EXPECT_EQ(s.client.receiver()->nacks_abandoned(), 1u);
  EXPECT_TRUE(s.client.receiver()->receive_report().gaps.empty());

  EXPECT_EQ(s.manager.retransmit(s.cr.session_id, {1}), 1u);
  s.drain();
  ASSERT_EQ(s.got.count(1), 1u);
  EXPECT_EQ(s.got.at(1), s.blocks[1]);
  EXPECT_EQ(s.client.receiver()->nacks_abandoned(), 0u);
  EXPECT_EQ(s.client.resume_from(), 4u);
  EXPECT_EQ(s.client.receiver()->frames_duplicate(), 0u);
}

TEST(SessionResume, ResumesPastAFrameLostForGood) {
  // Frame 1 vanishes and the 4-frame ring has evicted it by the first
  // NACK. Once the stream runs half the gap window past it the receiver
  // settles it, so the resume cursor moves past it and a kill/resume
  // continues the stream instead of degrading to a restart over a frame
  // nobody can replay.
  LossySession s;
  s.publish(8);
  s.drain();
  EXPECT_EQ(s.client.receiver()->receive_report().gaps,
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(s.unanswered_nack_rounds(), 3);  // every NACK refused: evicted
  EXPECT_EQ(s.client.receiver()->nacks_abandoned(), 1u);
  EXPECT_EQ(s.client.resume_from(), 1u);  // given up, not settled yet

  s.publish(2);  // seq 9 lands 8 past seq 1: settled
  s.drain();
  EXPECT_EQ(s.client.receiver()->nacks_abandoned(), 1u);
  EXPECT_EQ(s.client.resume_from(), 10u);

  // Kill the link; three blocks land in the ring while the session is
  // parked; resume on a brand-new endpoint from past the settled frame.
  s.client.on_dropped();
  ASSERT_TRUE(s.manager.disconnect(s.cr.session_id));
  s.publish(3);
  auto ep2 = std::make_unique<SimEndpoint>(s.clock, 1e6, 17);
  const ResumeResult rr =
      s.manager.resume(s.cr.session_id, s.cr.token, s.client.resume_from(),
                       ep2->duplex.a());
  ASSERT_EQ(rr.status, ResumeResult::Status::kResumed) << rr.reason;
  EXPECT_EQ(rr.replayed, 3u);
  s.client.on_resumed(ep2->duplex.b(), s.cr.token);
  s.ep.reset();
  s.drain();

  ASSERT_EQ(s.got.size(), s.blocks.size() - 1);
  EXPECT_EQ(s.got.count(1), 0u);
  for (const auto& [seq, data] : s.got) {
    ASSERT_LT(seq, s.blocks.size());
    EXPECT_EQ(data, s.blocks[seq]) << "block " << seq;
  }
  EXPECT_EQ(s.client.receiver()->frames_duplicate(), 0u);
  EXPECT_EQ(s.client.resume_from(), s.blocks.size());
}

TEST(SessionResume, ExpiredSessionGetsRestartNotResume) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, quick_session());
  ASSERT_TRUE(manager.disconnect(cr.session_id));

  clock.advance(2.1);  // past park_grace
  const TickReport tick = manager.tick();
  EXPECT_EQ(tick.expired, 1u);

  SinkTransport fresh;
  const ResumeResult rr = manager.resume(cr.session_id, cr.token, 0, fresh);
  EXPECT_EQ(rr.status, ResumeResult::Status::kRestart);
  EXPECT_EQ(manager.counters().restarts, 1u);
}

// -------------------------------------------------------------- overload

SessionConfig overload_session() {
  SessionConfig config = quick_session();
  config.subscriber.egress_capacity = 512;  // egress drives the pressure
  config.subscriber.adaptive.retransmit_capacity = 4;
  config.subscriber.adaptive.retransmit_max_bytes = 2048;
  config.subscriber.adaptive.decision.block_size = 4096;
  return config;
}

TEST(SessionOverload, LadderWalksInOrderRefusesNewAndRecovers) {
  VirtualClock clock;
  ManagerConfig mc;
  mc.budget.limit_bytes = 32 * 1024;
  SessionManager manager(clock, mc);

  const SessionConfig sc = overload_session();
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, sc);
  ASSERT_TRUE(cr.accepted);

  // Never pump: each published block parks ~512 incompressible bytes in
  // the egress, walking usage monotonically up through every stage.
  std::vector<DegradationStage> walk;
  for (std::uint64_t s = 0; s < 90; ++s) {
    manager.publish(incompressible_block(512, 1000 + s));
    const DegradationStage stage = manager.stage();
    if (walk.empty() || walk.back() != stage) walk.push_back(stage);
  }

  // Every stage, in escalation order, no oscillation while pressure only
  // grows — the hysteresis guard means a stage once entered is kept.
  const std::vector<DegradationStage> expected_walk = {
      DegradationStage::kNormal,     DegradationStage::kCheaperCodec,
      DegradationStage::kNullCodec,  DegradationStage::kDropOldest,
      DegradationStage::kShedParked, DegradationStage::kRefuseNew,
  };
  EXPECT_EQ(walk, expected_walk);
  EXPECT_EQ(manager.budget().stage_changes(), 5u);

  // At kRefuseNew a newcomer is turned away with a reason.
  SinkTransport late;
  const ConnectResult refused = manager.connect(late, sc);
  EXPECT_FALSE(refused.accepted);
  EXPECT_FALSE(refused.reason.empty());
  EXPECT_EQ(manager.counters().refused, 1u);
  // The incumbent keeps its session through the whole episode.
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);

  // Pressure clears: drain the egress, publish once more to refresh, and
  // the ladder de-escalates fully. Service quality is restored, and the
  // next newcomer is welcome.
  while (manager.pump(cr.session_id) > 0) {
  }
  manager.publish(incompressible_block(512, 4242));
  EXPECT_EQ(manager.stage(), DegradationStage::kNormal);
  SinkTransport welcome;
  const ConnectResult ok = manager.connect(welcome, sc);
  EXPECT_TRUE(ok.accepted);
}

TEST(SessionOverload, ShedsParkedSessionsAtDepthThenRecovers) {
  VirtualClock clock;
  ManagerConfig mc;
  mc.budget.limit_bytes = 32 * 1024;
  SessionManager manager(clock, mc);

  const SessionConfig sc = overload_session();
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, sc);
  ASSERT_TRUE(cr.accepted);

  // Climb until the ladder demands parked-session shedding.
  for (std::uint64_t s = 0;
       s < 90 && manager.stage() < DegradationStage::kShedParked; ++s) {
    manager.publish(incompressible_block(512, 2000 + s));
  }
  ASSERT_GE(manager.stage(), DegradationStage::kShedParked);

  // The session dies while the stage holds. Normally park_grace would keep
  // its state warm for 2 s; under kShedParked the very next refresh expires
  // it early instead — parked state is exactly the memory the ladder is
  // fighting for.
  ASSERT_TRUE(manager.disconnect(cr.session_id));
  EXPECT_EQ(manager.parked_count(), 1u);
  manager.publish(incompressible_block(512, 4243));
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kExpired);
  EXPECT_EQ(manager.parked_count(), 0u);
  EXPECT_EQ(manager.counters().shed, 1u);
  EXPECT_EQ(manager.counters().expired, 1u);

  // Shedding released the subscriber's egress and ring: the next refresh
  // sees the pressure gone and the ladder stands down completely.
  manager.publish(incompressible_block(512, 4244));
  EXPECT_EQ(manager.stage(), DegradationStage::kNormal);
}

TEST(SessionOverload, GovernorForcesTheNullCodecAtDepth) {
  // The same data, the same link: without a governor the selector
  // compresses; with the ladder's null-codec governor every block ships
  // uncompressed — the overload path reaches into the plan step itself.
  VirtualClock clock;
  const Bytes data = testdata::repetitive_text(8 * 4096, 11);

  adaptive::AdaptiveConfig config;
  config.decision.block_size = 4096;
  config.decision.sample_size = 1024;
  config.async_sampling = false;
  config.target_rate_Bps = 1e12;  // compression is always worthwhile

  SimEndpoint plain_ep(clock, 100e3, 3);
  adaptive::AdaptiveSender plain(plain_ep.duplex.a(), config);
  const adaptive::StreamReport before = plain.send_all(data);
  bool compressed_without_governor = false;
  for (const auto& block : before.blocks) {
    if (block.method != MethodId::kNone) compressed_without_governor = true;
  }
  EXPECT_TRUE(compressed_without_governor);

  config.method_governor = [](MethodId) { return MethodId::kNone; };
  SimEndpoint governed_ep(clock, 100e3, 4);
  adaptive::AdaptiveSender governed(governed_ep.duplex.a(), config);
  adaptive::AdaptiveReceiver rx(governed_ep.duplex.b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});
  const adaptive::StreamReport after = governed.send_all(data);
  for (const auto& block : after.blocks) {
    EXPECT_EQ(block.method, MethodId::kNone);
  }
  clock.advance(60.0);
  EXPECT_EQ(rx.receive_available(), data);  // degraded, never corrupted
}

/// A session on a crawling 100 kB/s link, where compression always pays
/// and the sampled ratio alone picks the method: LZ or BW on zeros,
/// Huffman on an unsampled (100 %) ratio.
SessionConfig sampling_session() {
  SessionConfig config = quick_session();
  config.subscriber.adaptive.decision.block_size = 4096;
  config.subscriber.adaptive.initial_bandwidth_Bps = 1e3;
  return config;
}

/// Pump `id` and parse the one frame it put on `endpoint`'s wire.
Frame next_frame(SessionManager& manager, SessionId id,
                 SimEndpoint& endpoint) {
  manager.pump(id);
  std::optional<Bytes> wire = endpoint.duplex.b().receive();
  if (!wire) throw DecodeError("no frame on the wire");
  EXPECT_FALSE(endpoint.duplex.b().receive().has_value());
  return frame_parse(*wire);
}

bool lz_family(MethodId method) {
  return method == MethodId::kLempelZiv ||
         method == MethodId::kBurrowsWheeler;
}

TEST(SessionOverload, NullCodecRungShedsSampling) {
  // kNullCodec exists to shed CPU: every method is governed to kNone, so
  // the §2.5 sample could not change a thing and no publish takes one.
  VirtualClock clock;
  ManagerConfig mc;
  mc.budget.limit_bytes = 1 << 20;
  SessionManager manager(clock, mc);
  std::size_t pressure = 0;
  manager.budget().add_probe("pressure", [&pressure] { return pressure; });
  SimEndpoint endpoint(clock, 100e3, 5);
  const ConnectResult cr = manager.connect(endpoint.duplex.a(),
                                           sampling_session());
  ASSERT_TRUE(cr.accepted);
  const Bytes block = testdata::zeros(4096, 0);

  pressure = mc.budget.limit_bytes * 4 / 5;  // 80 %: the null-codec rung
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    manager.publish(block);
    ASSERT_EQ(manager.stage(), DegradationStage::kNullCodec);
    const Frame frame = next_frame(manager, cr.session_id, endpoint);
    EXPECT_EQ(frame.method, MethodId::kNone);
    EXPECT_EQ(frame.sequence, seq);
  }
  EXPECT_EQ(manager.broker().stats().samples, 0u);

  // Pressure gone: the next publish samples again and plans from it.
  pressure = 0;
  manager.publish(block);
  ASSERT_EQ(manager.stage(), DegradationStage::kNormal);
  EXPECT_EQ(manager.broker().stats().samples, 1u);
  const Frame reopened = next_frame(manager, cr.session_id, endpoint);
  EXPECT_TRUE(lz_family(reopened.method))
      << "method " << static_cast<int>(reopened.method);
  EXPECT_EQ(reopened.sequence, 3u);
}

TEST(SessionOverload, AGovernorThatReopensAfterTheRawCheckStillShipsRaw) {
  // The ladder stage is an atomic another thread may move between the
  // broker's raw-only check and the plan. This governor leaves only kNone
  // until it has been asked about every ladder method, i.e. through one
  // whole raw-only check, and opens right after it. The block that check
  // cleared must still go raw: a decision on the sample nobody took would
  // read an unsampled ratio and pick Huffman.
  VirtualClock clock;
  SessionManager manager(clock);
  std::set<MethodId> asked;
  SessionConfig sc = sampling_session();
  sc.subscriber.adaptive.method_governor = [&asked](MethodId m) {
    if (asked.size() == adaptive::kDecisionLadder.size()) return m;
    asked.insert(m);
    return MethodId::kNone;
  };
  SimEndpoint endpoint(clock, 100e3, 6);
  const ConnectResult cr = manager.connect(endpoint.duplex.a(), sc);
  ASSERT_TRUE(cr.accepted);
  const Bytes block = testdata::zeros(4096, 0);

  manager.publish(block);
  EXPECT_EQ(manager.broker().stats().samples, 0u);
  EXPECT_EQ(next_frame(manager, cr.session_id, endpoint).method,
            MethodId::kNone);

  manager.publish(block);
  EXPECT_EQ(manager.broker().stats().samples, 1u);
  const MethodId method = next_frame(manager, cr.session_id, endpoint).method;
  EXPECT_TRUE(lz_family(method)) << "method " << static_cast<int>(method);
}

// ----------------------------------------------------------------- chaos

TEST(SessionChaos, SixteenSubscribersEachKilledThriceResumeByteExact) {
  qa::ChaosConfig config;  // defaults: 16 sessions, min_kills 3
  ASSERT_EQ(config.sessions, 16u);
  ASSERT_EQ(config.min_kills, 3u);

  const qa::ChaosReport report = qa::run_chaos(config);
  for (const std::string& v : report.violations) {
    ADD_FAILURE() << "chaos violation: " << v;
  }
  EXPECT_TRUE(report.ok());
  // Every peer was killed at least min_kills times mid-stream...
  EXPECT_GE(report.kills, config.sessions * config.min_kills);
  // ...and both recovery paths actually ran.
  EXPECT_GT(report.resumes, 0u);
  EXPECT_GT(report.restarts + report.expired, 0u);
  EXPECT_GT(report.published, 0u);
  EXPECT_GT(report.delivered, 0u);
  EXPECT_GT(report.heartbeats, 0u);
}

}  // namespace
}  // namespace acex::session
