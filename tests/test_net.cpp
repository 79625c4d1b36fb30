#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "broker/broker.hpp"
#include "compress/frame.hpp"
#include "compress/null_codec.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/demo_stream.hpp"
#include "net/event_loop.hpp"
#include "net/handshake.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "qa/mutate.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace acex::net {
namespace {

void msleep(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// --- NetSocket: shared helper layer -----------------------------------

TEST(NetSocket, LengthPrefixRoundTrip) {
  std::uint8_t buf[kLengthPrefixBytes];
  for (const std::uint32_t v : {0u, 1u, 255u, 65536u, 0xFFFFFFFFu}) {
    put_length_prefix(buf, v);
    EXPECT_EQ(get_length_prefix(buf), v);
  }
}

TEST(NetSocket, MessageRoundTripOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  const Bytes msg = to_bytes("negotiate me");
  send_message(a.get(), msg);
  const auto got = recv_message(b.get());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, msg);

  a.reset();  // close -> clean EOF at a message boundary
  EXPECT_FALSE(recv_message(b.get()).has_value());
}

TEST(NetSocket, OversizedLengthPrefixIsIoErrorNotAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  std::uint8_t prefix[kLengthPrefixBytes];
  put_length_prefix(prefix, 0xFFFFFFFFu);  // claims a ~4 GiB body
  send_all(a.get(), prefix, sizeof prefix);
  EXPECT_THROW(recv_message(b.get()), IoError);
}

TEST(NetSocket, NonBlockingReadReportsWouldBlockAndEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  set_nonblocking(b.get());
  std::uint8_t buf[16];
  EXPECT_EQ(read_some(b.get(), buf, sizeof buf), -1);  // nothing yet
  send_all(a.get(), buf, 4);
  EXPECT_EQ(read_some(b.get(), buf, sizeof buf), 4);
  a.reset();
  EXPECT_EQ(read_some(b.get(), buf, sizeof buf), 0);  // EOF
}

TEST(NetSocket, ListenConnectAcceptLoopback) {
  std::uint16_t port = 0;
  ScopedFd listener(listen_loopback(0, 8, &port));
  ASSERT_GT(port, 0);
  EXPECT_EQ(accept_client(listener.get()), -1);  // nothing pending yet
  ScopedFd client(connect_loopback(port));
  ASSERT_TRUE(wait_readable(listener.get(), 1000));
  ScopedFd server(accept_client(listener.get()));
  ASSERT_TRUE(server.valid());
  send_message(client.get(), to_bytes("hi"));
  const auto got = recv_message(server.get());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "hi");
}

// --- NetLoop: both readiness backends ---------------------------------

class NetLoop : public ::testing::TestWithParam<LoopBackend> {};

TEST_P(NetLoop, DispatchesReadableAndHonorsRemove) {
  EventLoop loop({GetParam()});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  set_nonblocking(b.get());

  int fired = 0;
  loop.add(b.get(), true, false, [&](int fd, Ready ready) {
    EXPECT_EQ(fd, b.get());
    EXPECT_TRUE(ready.readable);
    ++fired;
    std::uint8_t buf[64];
    while (read_some(fd, buf, sizeof buf) > 0) {
    }
  });
  EXPECT_EQ(loop.size(), 1u);

  EXPECT_EQ(loop.poll_once(0), 0u);  // idle
  send_all(a.get(), reinterpret_cast<const std::uint8_t*>("x"), 1);
  EXPECT_EQ(loop.poll_once(1000), 1u);
  EXPECT_EQ(fired, 1);

  loop.remove(b.get());
  send_all(a.get(), reinterpret_cast<const std::uint8_t*>("y"), 1);
  EXPECT_EQ(loop.poll_once(0), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_GE(loop.wakeups(), 3u);
}

TEST_P(NetLoop, WriteInterestFollowsModify) {
  EventLoop loop({GetParam()});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  set_nonblocking(a.get());

  int writable = 0;
  loop.add(a.get(), false, false, [&](int, Ready ready) {
    if (ready.writable) ++writable;
  });
  EXPECT_EQ(loop.poll_once(0), 0u);  // no interest, no dispatch
  loop.modify(a.get(), false, true);
  EXPECT_EQ(loop.poll_once(1000), 1u);  // empty socket buffer: writable
  EXPECT_EQ(writable, 1);
  loop.modify(a.get(), false, false);
  EXPECT_EQ(loop.poll_once(0), 0u);
}

TEST_P(NetLoop, CallbackMayRemovePeerFdMidBatch) {
  EventLoop loop({GetParam()});
  int p1[2], p2[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, p1), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, p2), 0);
  ScopedFd a1(p1[0]), b1(p1[1]), a2(p2[0]), b2(p2[1]);
  set_nonblocking(b1.get());
  set_nonblocking(b2.get());

  // Whichever fires first removes BOTH registrations; the second ready fd
  // must be skipped, not dispatched against a dangling entry.
  int fired = 0;
  const auto cb = [&](int, Ready) {
    ++fired;
    loop.remove(b1.get());
    loop.remove(b2.get());
  };
  loop.add(b1.get(), true, false, cb);
  loop.add(b2.get(), true, false, cb);
  send_all(a1.get(), reinterpret_cast<const std::uint8_t*>("x"), 1);
  send_all(a2.get(), reinterpret_cast<const std::uint8_t*>("x"), 1);
  loop.poll_once(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, NetLoop,
                         ::testing::Values(LoopBackend::kAuto,
                                           LoopBackend::kPoll),
                         [](const auto& info) {
                           return info.param == LoopBackend::kPoll ? "poll"
                                                                   : "auto";
                         });

// --- NetHandshake: negotiation + codec --------------------------------

TEST(NetHandshake, OfferRoundTrip) {
  CompressionOffer offer;
  offer.methods = {MethodId::kLzw, MethodId::kHuffman};
  offer.block_size = 32 * 1024;
  offer.expansion_slack = 128;
  offer.context_takeover = false;
  offer.target_rate_Bps = 123456789;
  offer.name = "edge-client";
  EXPECT_EQ(offer_decode(offer_encode(offer)), offer);

  offer.resume_session = 7;
  offer.resume_token = 0xDEADBEEF;
  offer.resume_from = 42;
  EXPECT_EQ(offer_decode(offer_encode(offer)), offer);
}

TEST(NetHandshake, ParamsRoundTrip) {
  NegotiatedParams params;
  params.methods = {MethodId::kBurrowsWheeler, MethodId::kNone};
  params.block_size = 8 * 1024;
  params.expansion_slack = 0;
  params.context_takeover = false;
  params.target_rate_Bps = 1ull << 40;
  EXPECT_EQ(params_decode(params_encode(params)), params);
}

TEST(NetHandshake, IntersectionKeepsOfferPreferenceOrder) {
  CompressionOffer offer;
  offer.methods = {MethodId::kLzw, MethodId::kBurrowsWheeler,
                   MethodId::kHuffman};
  ServerPolicy policy;
  policy.methods = {MethodId::kHuffman, MethodId::kBurrowsWheeler};
  const NegotiatedParams params = negotiate(offer, policy);
  const std::vector<MethodId> expect = {MethodId::kBurrowsWheeler,
                                        MethodId::kHuffman, MethodId::kNone};
  EXPECT_EQ(params.methods, expect);
}

TEST(NetHandshake, EmptyIntersectionIsCleanTypedReject) {
  CompressionOffer offer;
  offer.methods = {MethodId::kArithmetic};
  ServerPolicy policy;
  policy.methods = {MethodId::kHuffman};
  try {
    negotiate(offer, policy);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kNoCommonMethod);
  }
}

TEST(NetHandshake, NullOnlyOfferNeedsNoCommonCodec) {
  // A client that only ever wanted pass-through is not "no common method".
  CompressionOffer offer;
  offer.methods = {MethodId::kNone};
  ServerPolicy policy;
  policy.methods = {MethodId::kHuffman};
  const NegotiatedParams params = negotiate(offer, policy);
  EXPECT_EQ(params.methods, std::vector<MethodId>{MethodId::kNone});
}

TEST(NetHandshake, ParameterClampingAndBadParameter) {
  CompressionOffer offer;
  offer.block_size = 1;  // below policy floor
  offer.expansion_slack = 1 << 20;
  ServerPolicy policy;
  policy.max_target_rate_Bps = 1000;
  offer.target_rate_Bps = 5000;
  const NegotiatedParams params = negotiate(offer, policy);
  EXPECT_EQ(params.block_size, policy.min_block_size);
  EXPECT_EQ(params.expansion_slack, policy.max_expansion_slack);
  EXPECT_EQ(params.target_rate_Bps, 1000u);

  offer.block_size = 0;
  try {
    negotiate(offer, policy);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kBadParameter);
  }
}

TEST(NetHandshake, ContextTakeoverIsOfferAndPolicy) {
  CompressionOffer offer;
  ServerPolicy policy;
  EXPECT_TRUE(negotiate(offer, policy).context_takeover);
  policy.allow_context_takeover = false;
  EXPECT_FALSE(negotiate(offer, policy).context_takeover);
  policy.allow_context_takeover = true;
  offer.context_takeover = false;
  EXPECT_FALSE(negotiate(offer, policy).context_takeover);
}

TEST(NetHandshake, PolicyIdRoundTripsOnTheWire) {
  CompressionOffer offer;
  offer.policy_id =
      static_cast<std::uint64_t>(adaptive::DecisionPolicy::kEnergyProxy);
  EXPECT_EQ(offer_decode(offer_encode(offer)), offer);

  NegotiatedParams params;
  params.policy = adaptive::DecisionPolicy::kTargetRate;
  EXPECT_EQ(params_decode(params_encode(params)), params);

  // The default policy (kBandwidth = 0) encodes as an EMPTY extension
  // block — byte-identical to the pre-policy wire format, so old peers
  // interoperate without noticing.
  CompressionOffer default_offer;
  CompressionOffer explicit_bandwidth;
  explicit_bandwidth.policy_id = 0;
  EXPECT_EQ(offer_encode(default_offer), offer_encode(explicit_bandwidth));
}

TEST(NetHandshake, UnknownPolicyIdIsTypedReject) {
  // A policy id from a newer build must produce the typed reject, not a
  // parse error and not a silent downgrade.
  CompressionOffer offer;
  offer.policy_id = 99;
  EXPECT_EQ(offer_decode(offer_encode(offer)).policy_id, 99u)
      << "unknown ids must survive decode so negotiate() can name them";
  ServerPolicy policy;
  try {
    negotiate(offer, policy);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kUnsupportedPolicy);
  }
}

TEST(NetHandshake, ServerPolicyListGatesKnownPolicies) {
  // A known policy the server chose not to allow is rejected with the same
  // typed status as an unknown one.
  CompressionOffer offer;
  offer.policy_id =
      static_cast<std::uint64_t>(adaptive::DecisionPolicy::kCpuEfficiency);
  ServerPolicy policy;
  policy.policies = {adaptive::DecisionPolicy::kBandwidth};
  try {
    negotiate(offer, policy);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kUnsupportedPolicy);
  }
  policy.policies.push_back(adaptive::DecisionPolicy::kCpuEfficiency);
  EXPECT_EQ(negotiate(offer, policy).policy,
            adaptive::DecisionPolicy::kCpuEfficiency);
}

TEST(NetHandshake, WelcomeNamingUnknownPolicyIsTyped) {
  // The server side of the skew: a welcome whose extension names a policy
  // this build cannot run must throw typed, never half-apply.
  NegotiatedParams params;
  params.policy = adaptive::DecisionPolicy::kEnergyProxy;
  Bytes wire = params_encode(params);
  // The policy extension is the last thing before the CRC: field id 1,
  // length 1, value. Corrupt the value byte to an unknown id.
  ASSERT_GE(wire.size(), 8u);
  wire[wire.size() - 5] = 77;
  const std::size_t body = wire.size() - 4;
  const std::uint32_t crc = crc32(ByteView(wire.data(), body));
  for (std::size_t i = 0; i < 4; ++i) {
    wire[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  try {
    params_decode(wire);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kUnsupportedPolicy);
  }
}

TEST(NetHandshake, NegotiatedPolicyAppliesToAdaptiveConfig) {
  NegotiatedParams params;
  params.policy = adaptive::DecisionPolicy::kCpuEfficiency;
  adaptive::AdaptiveConfig config;
  apply(params, config);
  EXPECT_EQ(config.decision.policy, adaptive::DecisionPolicy::kCpuEfficiency);
}

TEST(NetHandshake, UnknownMethodIdsIgnoredNotFatal) {
  CompressionOffer offer;
  offer.methods = {MethodId::kHuffman};
  Bytes wire = offer_encode(offer);
  // Re-encode by hand with a bogus method id spliced into the list: bump
  // the count varint (1 -> 2 stays single-byte) and insert unknown id 77.
  // Offsets: magic(2) version(1) flags(1) count(1) id...
  ASSERT_EQ(wire[4], 1);
  wire[4] = 2;
  wire.insert(wire.begin() + 6, static_cast<std::uint8_t>(77));
  // Recompute the trailing CRC over the edited body.
  const std::size_t body = wire.size() - 4;
  const std::uint32_t crc = crc32(ByteView(wire.data(), body));
  for (std::size_t i = 0; i < 4; ++i) {
    wire[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  const CompressionOffer decoded = offer_decode(wire);
  EXPECT_EQ(decoded.methods, offer.methods);  // 77 skipped silently
}

TEST(NetHandshake, VNextExtensionFieldIsSkipped) {
  CompressionOffer offer;
  Bytes wire = offer_encode(offer);
  // The encoder wrote an empty extension block (varint 0) just before the
  // CRC. Replace it with a block carrying an unknown TLV field (id 7,
  // 2 payload bytes) a v-next peer might send; this decoder must skip the
  // field by its declared length and still parse cleanly — with the
  // default policy, since no policy field was present.
  Bytes edited(wire.begin(), wire.end() - 5);  // drop "00" ext + CRC
  edited.push_back(4);     // extension block length
  edited.push_back(7);     // unknown field id
  edited.push_back(2);     // field length
  edited.push_back(0xAA);
  edited.push_back(0xBB);
  const std::uint32_t crc = crc32(edited);
  for (std::size_t i = 0; i < 4; ++i) {
    edited.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  EXPECT_EQ(offer_decode(edited), offer);
  EXPECT_EQ(offer_decode(edited).policy_id, 0u);
}

TEST(NetHandshake, VersionSkewIsTyped) {
  Bytes wire = offer_encode(CompressionOffer{});
  wire[2] = kHandshakeVersion + 1;
  const std::size_t body = wire.size() - 4;
  const std::uint32_t crc = crc32(ByteView(wire.data(), body));
  for (std::size_t i = 0; i < 4; ++i) {
    wire[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  try {
    offer_decode(wire);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kVersionSkew);
  }
}

TEST(NetHandshake, GovernedMethodDemotesAlongStrengthLadder) {
  const std::vector<MethodId> allowed = {MethodId::kLempelZiv,
                                         MethodId::kNone};
  // Stronger-than-allowed demotes to the strongest allowed weaker method.
  EXPECT_EQ(governed_method(allowed, MethodId::kBurrowsWheeler),
            MethodId::kLempelZiv);
  EXPECT_EQ(governed_method(allowed, MethodId::kLzw), MethodId::kLempelZiv);
  // Allowed methods pass through; weaker-than-anything falls to kNone.
  EXPECT_EQ(governed_method(allowed, MethodId::kLempelZiv),
            MethodId::kLempelZiv);
  EXPECT_EQ(governed_method(allowed, MethodId::kHuffman), MethodId::kNone);
  EXPECT_EQ(governed_method(allowed, MethodId::kNone), MethodId::kNone);
}

TEST(NetHandshake, ApplyMapsOntoAdaptiveConfig) {
  NegotiatedParams params;
  params.methods = {MethodId::kHuffman, MethodId::kNone};
  params.block_size = 8192;
  params.expansion_slack = 16;
  params.context_takeover = false;
  params.target_rate_Bps = 777;
  params.policy = adaptive::DecisionPolicy::kEnergyProxy;
  adaptive::AdaptiveConfig config;
  apply(params, config);
  EXPECT_EQ(config.decision.block_size, 8192u);
  EXPECT_EQ(config.decision.policy, adaptive::DecisionPolicy::kEnergyProxy);
  EXPECT_EQ(config.expansion_slack_bytes, 16u);
  EXPECT_DOUBLE_EQ(config.target_rate_Bps, 777.0);
  ASSERT_TRUE(static_cast<bool>(config.method_governor));
  EXPECT_EQ(config.method_governor(MethodId::kBurrowsWheeler),
            MethodId::kHuffman);
  EXPECT_EQ(config.method_governor(MethodId::kHuffman), MethodId::kHuffman);
  EXPECT_EQ(config.method_governor(MethodId::kNone), MethodId::kNone);
}

TEST(NetHandshake, RandomizedOfferRoundTripProperty) {
  Rng rng(0xC0FFEE);
  const std::vector<MethodId> pool = {
      MethodId::kNone,       MethodId::kHuffman,        MethodId::kArithmetic,
      MethodId::kLempelZiv,  MethodId::kBurrowsWheeler, MethodId::kLzw};
  for (int iter = 0; iter < 200; ++iter) {
    CompressionOffer offer;
    offer.methods.clear();
    const std::size_t n = 1 + rng.below(pool.size());
    for (std::size_t i = 0; i < n; ++i) {
      const MethodId m = pool[rng.below(pool.size())];
      if (std::find(offer.methods.begin(), offer.methods.end(), m) ==
          offer.methods.end()) {
        offer.methods.push_back(m);
      }
    }
    offer.block_size = static_cast<std::uint32_t>(1 + rng.below(1 << 22));
    offer.expansion_slack = static_cast<std::uint32_t>(rng.below(4096));
    offer.context_takeover = rng.chance(0.5);
    offer.target_rate_Bps = rng.below(1ull << 40);
    offer.name = "c" + std::to_string(rng.below(1000));
    if (rng.chance(0.3)) {
      offer.resume_session = 1 + rng.below(1000);
      offer.resume_token = rng();
      offer.resume_from = rng.below(10000);
    }
    ASSERT_EQ(offer_decode(offer_encode(offer)), offer) << "iter " << iter;

    // Negotiation, when it succeeds, must emit only offered-or-kNone
    // methods, honor policy bounds, and be idempotent under re-check.
    ServerPolicy policy;
    policy.min_block_size = static_cast<std::uint32_t>(1 + rng.below(8192));
    policy.max_block_size =
        policy.min_block_size + static_cast<std::uint32_t>(rng.below(1 << 22));
    try {
      const NegotiatedParams params = negotiate(offer, policy);
      EXPECT_GE(params.block_size, policy.min_block_size);
      EXPECT_LE(params.block_size, policy.max_block_size);
      for (const MethodId m : params.methods) {
        EXPECT_TRUE(m == MethodId::kNone ||
                    std::find(offer.methods.begin(), offer.methods.end(),
                              m) != offer.methods.end());
      }
      EXPECT_FALSE(params.methods.empty());
    } catch (const HandshakeError&) {
      // typed rejects are legal outcomes of random offers
    }
  }
}

TEST(NetHandshake, MutatedOffersNeverCrashOrMisparse) {
  // Truncation + bit-flip fuzz via qa::mutate: every mutation either
  // decodes to SOMETHING (CRC collision at ~2^-32, structurally valid) or
  // throws a typed HandshakeError — never anything else, never a crash.
  Rng rng(0xFEED5EED);
  CompressionOffer offer;
  offer.name = "fuzz-victim";
  offer.resume_session = 3;
  offer.resume_token = 9;
  const Bytes clean = offer_encode(offer);
  int rejected = 0;
  const int iters = qa::fuzz_iterations(300);
  for (int i = 0; i < iters; ++i) {
    Bytes evil = qa::mutate(clean, rng);
    if (rng.chance(0.3) && !evil.empty()) {
      evil.resize(rng.below(evil.size()));  // hard truncation
    }
    try {
      (void)offer_decode(evil);
    } catch (const HandshakeError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, iters / 2);  // most mutations must be caught
}

// --- NetProtocol: message envelopes -----------------------------------

TEST(NetProtocol, WrapUnwrapRoundTrip) {
  const Bytes payload = to_bytes("payload");
  const Bytes framed = wrap(MsgKind::kNack, payload);
  const Msg msg = unwrap(framed);
  EXPECT_EQ(msg.kind, MsgKind::kNack);
  EXPECT_EQ(msg.payload, payload);
  EXPECT_THROW(unwrap(Bytes{}), HandshakeError);
  EXPECT_THROW(unwrap(Bytes{99}), HandshakeError);
}

TEST(NetProtocol, WelcomeRejectNackStatsRoundTrip) {
  Welcome welcome;
  welcome.session_id = 11;
  welcome.token = 0xABCD;
  welcome.heartbeat_interval_ms = 250;
  welcome.resumed = true;
  welcome.replayed = 5;
  welcome.params.methods = {MethodId::kLzw, MethodId::kNone};
  EXPECT_EQ(welcome_decode(welcome_encode(welcome)), welcome);

  Reject reject;
  reject.status = HandshakeStatus::kNoCommonMethod;
  reject.reason = "no overlap";
  EXPECT_EQ(reject_decode(reject_encode(reject)), reject);

  const std::vector<std::uint64_t> seqs = {1, 5, 1000000};
  EXPECT_EQ(nack_decode(nack_encode(seqs)), seqs);

  DaemonStats stats;
  stats.connections_total = 64;
  stats.bytes_out = 1ull << 33;
  stats.loop_wakeups = 12345;
  EXPECT_EQ(stats_decode(stats_encode(stats)), stats);
}

TEST(NetProtocol, DemoBlocksSelfVerify) {
  const Bytes block = demo_block(42, 7, 4096);
  EXPECT_EQ(block.size(), 4096u);
  EXPECT_EQ(demo_block_index(block), 7);
  EXPECT_EQ(demo_block_size(block), 4096u);
  EXPECT_TRUE(demo_block_verify(42, block));
  Bytes bad = block;
  bad[100] ^= 1;
  EXPECT_FALSE(demo_block_verify(42, bad));
  EXPECT_FALSE(demo_block_verify(43, block));
  EXPECT_EQ(demo_block_index(to_bytes("not a block")), -1);
}

// --- NetDaemon: end-to-end over real sockets --------------------------

DaemonConfig quick_daemon_config() {
  DaemonConfig config;
  config.tick_interval = 0.02;
  config.session.liveness_timeout = 1.0;
  config.session.suspect_grace = 0.5;
  config.session.park_grace = 10.0;
  config.session.heartbeat_interval = 0.1;
  return config;
}

CompressionOffer deterministic_offer(std::vector<MethodId> methods) {
  CompressionOffer offer;
  offer.methods = std::move(methods);
  // Unreachable target rate: every block escalates to the strongest
  // negotiated method, so selections do not depend on socket timing.
  offer.target_rate_Bps = 1ull << 60;
  return offer;
}

/// Replay `blocks` through a private broker configured exactly like the
/// daemon configures the negotiated subscriber; returns (frames, crc).
std::pair<std::uint64_t, std::uint32_t> private_wire(
    const NegotiatedParams& params, const std::vector<Bytes>& blocks) {
  struct Capture final : transport::Transport {
    void send(ByteView m) override {
      crc.update(m);
      ++frames;
    }
    std::optional<Bytes> receive() override { return std::nullopt; }
    const Clock& clock() const override { return clk; }
    MonotonicClock clk;
    Crc32 crc;
    std::uint64_t frames = 0;
  } capture;
  broker::FanoutBroker broker;
  broker::SubscriberConfig sub;
  apply(params, sub.adaptive);
  const broker::SubscriberId id = broker.subscribe(capture, sub);
  for (const Bytes& block : blocks) {
    broker.publish(block);
    broker.pump(id);
  }
  return {capture.frames, capture.crc.value()};
}

TEST(NetDaemon, HeterogeneousClientsDecodeAndMatchPrivateWire) {
  Daemon daemon(quick_daemon_config());
  daemon.start();

  struct Spec {
    std::vector<MethodId> methods;
    std::uint32_t block_size;
  };
  const std::vector<Spec> specs = {
      {{MethodId::kBurrowsWheeler, MethodId::kNone}, 64 * 1024},
      {{MethodId::kLempelZiv, MethodId::kNone}, 16 * 1024},
      {{MethodId::kHuffman, MethodId::kNone}, 8 * 1024},
      {{MethodId::kNone}, 32 * 1024},
  };
  std::vector<std::unique_ptr<DaemonClient>> clients;
  for (const Spec& spec : specs) {
    DaemonClientConfig cfg;
    cfg.offer = deterministic_offer(spec.methods);
    if (spec.methods == std::vector<MethodId>{MethodId::kNone}) {
      cfg.offer.target_rate_Bps = 0;  // pass-through client: no escalation
    }
    cfg.offer.block_size = spec.block_size;
    clients.push_back(std::make_unique<DaemonClient>(daemon.port(), cfg));
    // Negotiation honored per client: strongest offered method survives.
    EXPECT_EQ(clients.back()->welcome().params.methods.front(),
              spec.methods.front());
    EXPECT_EQ(clients.back()->welcome().params.block_size, spec.block_size);
  }

  constexpr int kBlocks = 12;
  constexpr std::size_t kBlockBytes = 24 * 1024;
  std::vector<Bytes> blocks;
  Bytes expected_stream;
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back(demo_block(9, static_cast<std::uint32_t>(i),
                                kBlockBytes));
    expected_stream.insert(expected_stream.end(), blocks.back().begin(),
                           blocks.back().end());
  }
  for (const Bytes& block : blocks) daemon.publish(block);

  for (auto& client : clients) {
    ASSERT_TRUE(client->poll_until(expected_stream.size(), 15000));
    // Content identity: every client decodes the byte-exact publish
    // stream regardless of its negotiated parameters.
    EXPECT_EQ(client->stream(), expected_stream);
  }

  // Wire identity: the frames each client saw equal a private
  // AdaptiveSender run with the same negotiated config (deterministic
  // because of the forced target rate; valid only if nothing was dropped
  // and re-requested, hence the frame-count gate).
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto [frames, crc] =
        private_wire(clients[i]->welcome().params, blocks);
    ASSERT_EQ(clients[i]->data_frames(), frames) << "client " << i;
    EXPECT_EQ(clients[i]->wire_crc(), crc) << "client " << i;
  }

  for (auto& client : clients) client->bye();
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.handshakes, specs.size());
  EXPECT_EQ(stats.rejects, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  EXPECT_GT(stats.loop_wakeups, 0u);
}

TEST(NetDaemon, RejectsRideTypedStatuses) {
  DaemonConfig config = quick_daemon_config();
  config.policy.methods = {MethodId::kHuffman};
  Daemon daemon(config);
  daemon.start();

  DaemonClientConfig cfg;
  cfg.offer.methods = {MethodId::kBurrowsWheeler};
  try {
    DaemonClient client(daemon.port(), cfg);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kNoCommonMethod);
  }

  // Garbage instead of a hello: typed malformed reject.
  {
    ScopedFd raw(connect_loopback(daemon.port()));
    send_message(raw.get(), wrap(MsgKind::kHello, to_bytes("garbage")));
    const auto answer = recv_message(raw.get());
    ASSERT_TRUE(answer.has_value());
    const Msg msg = unwrap(*answer);
    ASSERT_EQ(msg.kind, MsgKind::kReject);
    EXPECT_EQ(reject_decode(msg.payload).status, HandshakeStatus::kMalformed);
    EXPECT_FALSE(recv_message(raw.get()).has_value());  // then EOF
  }

  // Version-skewed offer: typed version reject.
  {
    Bytes wire = offer_encode(CompressionOffer{});
    wire[2] = kHandshakeVersion + 3;
    const std::size_t body = wire.size() - 4;
    const std::uint32_t crc = crc32(ByteView(wire.data(), body));
    for (std::size_t i = 0; i < 4; ++i) {
      wire[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    ScopedFd raw(connect_loopback(daemon.port()));
    send_message(raw.get(), wrap(MsgKind::kHello, wire));
    const auto answer = recv_message(raw.get());
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(reject_decode(unwrap(*answer).payload).status,
              HandshakeStatus::kVersionSkew);
  }

  daemon.stop();
  EXPECT_EQ(daemon.stats().rejects, 3u);
  EXPECT_EQ(daemon.stats().handshakes, 0u);
}

TEST(NetDaemon, StatProbeAnswersWithoutSubscription) {
  Daemon daemon(quick_daemon_config());
  daemon.start();
  ScopedFd raw(connect_loopback(daemon.port()));
  send_message(raw.get(), wrap(MsgKind::kStatRequest, {}));
  const auto answer = recv_message(raw.get());
  ASSERT_TRUE(answer.has_value());
  const Msg msg = unwrap(*answer);
  ASSERT_EQ(msg.kind, MsgKind::kStatReply);
  const DaemonStats stats = stats_decode(msg.payload);
  EXPECT_GE(stats.connections_total, 1u);
  daemon.stop();
}

TEST(NetDaemon, KilledClientResumesByteIdentically) {
  DaemonConfig config = quick_daemon_config();
  Daemon daemon(config);
  daemon.start();

  DaemonClientConfig cfg;
  cfg.offer = deterministic_offer({MethodId::kLempelZiv, MethodId::kNone});
  cfg.offer.name = "lazarus";
  DaemonClient client(daemon.port(), cfg);

  constexpr int kBlocks = 10;
  constexpr std::size_t kBlockBytes = 8 * 1024;
  Bytes expected;
  for (int i = 0; i < kBlocks / 2; ++i) {
    Bytes b = demo_block(5, static_cast<std::uint32_t>(i), kBlockBytes);
    expected.insert(expected.end(), b.begin(), b.end());
    daemon.publish(std::move(b));
  }
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));

  // Kill: no bye, no warning. The daemon parks the session on EOF.
  const std::uint64_t session = client.session().session_id();
  client.drop();
  msleep(100);

  // Blocks published while the client is dead must survive the outage
  // (parked sessions keep planning; the ring holds the gap).
  for (int i = kBlocks / 2; i < kBlocks; ++i) {
    Bytes b = demo_block(5, static_cast<std::uint32_t>(i), kBlockBytes);
    expected.insert(expected.end(), b.begin(), b.end());
    daemon.publish(std::move(b));
  }
  msleep(100);

  client.resume(daemon.port());
  EXPECT_TRUE(client.welcome().resumed);
  EXPECT_EQ(client.welcome().session_id, session);
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));
  // No gap, no duplicate: the resumed stream is byte-identical to one
  // that never dropped.
  EXPECT_EQ(client.stream(), expected);

  client.bye();
  daemon.stop();
  EXPECT_EQ(daemon.manager().counters().resumes, 1u);
}

TEST(NetDaemon, ResumeWithBadTokenIsTypedReject) {
  Daemon daemon(quick_daemon_config());
  daemon.start();
  DaemonClientConfig cfg;
  DaemonClient client(daemon.port(), cfg);
  const std::uint64_t session = client.session().session_id();
  client.drop();

  CompressionOffer offer;
  offer.resume_session = session;
  offer.resume_token = 0xBAD70CEA;  // wrong credential
  offer.resume_from = 0;
  ScopedFd raw(connect_loopback(daemon.port()));
  send_message(raw.get(), wrap(MsgKind::kHello, offer_encode(offer)));
  const auto answer = recv_message(raw.get());
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(reject_decode(unwrap(*answer).payload).status,
            HandshakeStatus::kResumeRejected);
  daemon.stop();
}

TEST(NetDaemon, OverloadLadderStaysInsideNegotiatedSet) {
  // Under memory pressure the session ladder demotes methods — but the
  // composed governor (ladder first, allowlist last) must never emit a
  // method outside the client's negotiated set.
  const std::vector<MethodId> allowed = {MethodId::kLempelZiv,
                                         MethodId::kNone};
  adaptive::AdaptiveConfig config;
  NegotiatedParams params;
  params.methods = allowed;
  apply(params, config);
  // Simulate the manager's composition with a ladder that demotes
  // everything to Huffman (a method the client did NOT negotiate).
  auto ladder = [](MethodId) { return MethodId::kHuffman; };
  auto user = config.method_governor;
  auto composed = [&](MethodId m) { return user(ladder(m)); };
  // Huffman is not in the set: the allowlist pushes it down to kNone
  // rather than letting it onto the wire.
  EXPECT_EQ(composed(MethodId::kBurrowsWheeler), MethodId::kNone);
  EXPECT_EQ(composed(MethodId::kLempelZiv), MethodId::kNone);
}

TEST(NetDaemon, PollBackendServesClientsToo) {
  DaemonConfig config = quick_daemon_config();
  config.backend = LoopBackend::kPoll;
  Daemon daemon(config);
  daemon.start();
  DaemonClientConfig cfg;
  cfg.offer = deterministic_offer({MethodId::kHuffman, MethodId::kNone});
  DaemonClient client(daemon.port(), cfg);
  Bytes expected;
  for (int i = 0; i < 4; ++i) {
    Bytes b = demo_block(3, static_cast<std::uint32_t>(i), 4096);
    expected.insert(expected.end(), b.begin(), b.end());
    daemon.publish(std::move(b));
  }
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));
  EXPECT_EQ(client.stream(), expected);
  client.bye();
  daemon.stop();
}

// --- NetClient: heartbeat liveness over a real socket ------------------

TEST(NetClient, HeartbeatsKeepSessionLiveAcrossSilence) {
  DaemonConfig config = quick_daemon_config();
  config.session.liveness_timeout = 0.3;
  config.session.suspect_grace = 0.2;
  Daemon daemon(config);
  daemon.start();

  DaemonClientConfig cfg;
  DaemonClient client(daemon.port(), cfg);
  const std::uint64_t session = client.session().session_id();

  // Nothing published for several liveness windows; polling sends the due
  // heartbeats, so the session must still be live afterwards — real
  // sockets deliver with latency, which is exactly what this exercises.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1200);
  while (std::chrono::steady_clock::now() < deadline) client.poll(20);
  ASSERT_TRUE(client.connected());

  Bytes b = demo_block(1, 0, 4096);
  const Bytes expected = b;
  daemon.publish(std::move(b));
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));
  EXPECT_EQ(client.stream(), expected);

  client.bye();
  // bye() does not wait for the ack; give the loop a moment to read the
  // kBye (or the EOF behind it) and park the session before inspecting.
  for (int i = 0; i < 100; ++i) {
    if (daemon.manager().state(session) == session::SessionState::kParked) {
      break;
    }
    msleep(10);
  }
  daemon.stop();
  EXPECT_EQ(daemon.manager().state(session), session::SessionState::kParked);
  EXPECT_GT(daemon.manager().counters().heartbeats, 2u);
}

// Stand-in daemon for the NACK pacing tests: accepts one client on
// `listener`, welcomes it with a `heartbeat_ms` interval, sends frames 0 and
// 2 and never replays, so frame 1 stays a gap. `server` keeps the socket.
std::jthread serve_one_gap(const ScopedFd& listener, ScopedFd& server,
                           std::uint64_t heartbeat_ms) {
  return std::jthread([&listener, &server, heartbeat_ms] {
    if (!wait_readable(listener.get(), 5000)) return;
    server.reset(accept_client(listener.get()));
    if (!recv_message(server.get())) return;  // kHello
    Welcome welcome;
    welcome.session_id = 1;
    welcome.token = 2;
    welcome.heartbeat_interval_ms = heartbeat_ms;
    send_message(server.get(),
                 wrap(MsgKind::kWelcome, welcome_encode(welcome)));
    NullCodec codec;
    for (const std::uint32_t seq : {0u, 2u}) {
      send_message(server.get(),
                   wrap(MsgKind::kData,
                        frame_compress_seq(codec, demo_block(1, seq, 1024),
                                           seq)));
    }
  });
}

// Count the kNack messages that reach the stand-in daemon's side.
int nacks_received(const ScopedFd& server) {
  int nacks = 0;
  while (wait_readable(server.get(), 50)) {
    const auto frame = recv_message(server.get());
    if (!frame) break;
    nacks += unwrap(*frame).kind == MsgKind::kNack;
  }
  return nacks;
}

TEST(NetClient, IdlePollsNackAGapOncePerHeartbeatInterval) {
  // The stand-in daemon leaves frame 1 a gap while the client polls with
  // nothing arriving. Every NACK round spends one of the gap's attempts, so
  // idle polls must not each start one; a round is due again only a
  // heartbeat interval later.
  constexpr std::uint64_t kHeartbeatMs = 1000;
  std::uint16_t port = 0;
  ScopedFd listener(listen_loopback(0, 8, &port));
  ScopedFd server;
  std::jthread daemon_side =  // joins on every exit path
      serve_one_gap(listener, server, kHeartbeatMs);
  DaemonClient client(port);
  daemon_side.join();
  ASSERT_TRUE(server.valid());

  // Well inside one heartbeat interval: the poll that delivers the frames
  // starts one round, the idle polls after it start none.
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(kHeartbeatMs / 4)) {
    client.poll(10);
  }
  EXPECT_EQ(client.data_frames(), 2u);
  EXPECT_EQ(nacks_received(server), 1);

  // Past the interval the gap, at the tail of the stream, is NACKed again.
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(kHeartbeatMs * 3 / 2)) {
    client.poll(10);
  }
  EXPECT_EQ(nacks_received(server), 1);
}

TEST(NetClient, DropStartsNoNackRound) {
  // A round is due again a heartbeat interval after the last one, but
  // drop() is closing the only socket a replay could come back on, and
  // resume() replays the gap anyway: it must decode without NACKing.
  constexpr std::uint64_t kHeartbeatMs = 200;
  std::uint16_t port = 0;
  ScopedFd listener(listen_loopback(0, 8, &port));
  ScopedFd server;
  std::jthread daemon_side = serve_one_gap(listener, server, kHeartbeatMs);
  DaemonClient client(port);
  daemon_side.join();
  ASSERT_TRUE(server.valid());

  client.poll(1000);
  EXPECT_EQ(client.data_frames(), 2u);
  EXPECT_EQ(nacks_received(server), 1);

  msleep(static_cast<int>(kHeartbeatMs * 3 / 2));
  client.drop();
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(nacks_received(server), 0);
}

TEST(NetClient, SilentClientGetsParkedNotDropped) {
  DaemonConfig config = quick_daemon_config();
  config.session.liveness_timeout = 0.15;
  config.session.suspect_grace = 0.1;
  config.session.park_grace = 30.0;
  Daemon daemon(config);
  daemon.start();

  DaemonClientConfig cfg;
  cfg.offer = deterministic_offer({MethodId::kHuffman, MethodId::kNone});
  DaemonClient client(daemon.port(), cfg);
  const std::uint64_t session = client.session().session_id();

  // Go silent (no polls, no heartbeats) while staying connected: the
  // liveness machinery must walk live -> suspect -> parked.
  for (int i = 0; i < 300; ++i) {
    if (daemon.manager().state(session) == session::SessionState::kParked) {
      break;
    }
    msleep(10);
  }
  EXPECT_EQ(daemon.manager().state(session), session::SessionState::kParked);

  // A parked session resumes — over the SAME kind of path a killed one
  // does — and the stream picks up with everything published meanwhile.
  Bytes b = demo_block(2, 0, 4096);
  const Bytes expected = b;
  daemon.publish(std::move(b));
  msleep(100);
  client.drop();
  client.resume(daemon.port());
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));
  EXPECT_EQ(client.stream(), expected);
  client.bye();
  daemon.stop();
}

}  // namespace
}  // namespace acex::net
