#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "netsim/link.hpp"
#include "testdata.hpp"
#include "transport/receive_window.hpp"
#include "transport/sim_transport.hpp"
#include "transport/tcp_transport.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace acex::transport {
namespace {

netsim::LinkParams flat_link(double bps) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bps;
  p.jitter_frac = 0;
  p.latency_s = 0;
  return p;
}

// ---------------------------------------------------------------- simulated

class SimTransportTest : public ::testing::Test {
 protected:
  VirtualClock clock_;
  netsim::SimLink forward_{flat_link(1000), 1};
  netsim::SimLink reverse_{flat_link(1000), 2};
  SimDuplex duplex_{forward_, reverse_, clock_};
};

TEST_F(SimTransportTest, MessageArrivesAtPeer) {
  duplex_.a().send(to_bytes("hello"));
  const auto got = duplex_.b().receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "hello");
  EXPECT_FALSE(duplex_.b().receive().has_value());
}

TEST_F(SimTransportTest, SendAdvancesVirtualClock) {
  duplex_.a().send(Bytes(1000, 0));  // 1000 B at 1000 B/s = 1 s
  EXPECT_NEAR(clock_.now(), 1.0, 1e-9);
  duplex_.a().send(Bytes(500, 0));
  EXPECT_NEAR(clock_.now(), 1.5, 1e-9);
}

TEST_F(SimTransportTest, DirectionsDoNotContend) {
  duplex_.a().send(Bytes(1000, 0));
  const Seconds after_forward = clock_.now();
  duplex_.b().send(Bytes(1000, 0));  // reverse link was idle the whole time
  // The reverse link's queue started at 0, so this takes 1 s from now.
  EXPECT_NEAR(clock_.now(), after_forward + 1.0, 1e-9);
  EXPECT_TRUE(duplex_.a().receive().has_value());
}

TEST_F(SimTransportTest, OrderingIsFifo) {
  duplex_.a().send(to_bytes("one"));
  duplex_.a().send(to_bytes("two"));
  EXPECT_EQ(to_string(*duplex_.b().receive()), "one");
  EXPECT_EQ(to_string(*duplex_.b().receive()), "two");
}

TEST_F(SimTransportTest, TracksBytesAndLastTransfer) {
  duplex_.a().send(Bytes(123, 0));
  EXPECT_EQ(duplex_.a().bytes_sent(), 123u);
  EXPECT_GT(duplex_.a().last_transfer().delivered, 0.0);
  EXPECT_EQ(duplex_.b().pending(), 1u);
}

TEST(SimDuplex, RejectsSharedLink) {
  VirtualClock clock;
  netsim::SimLink link(flat_link(1000), 1);
  EXPECT_THROW(SimDuplex(link, link, clock), ConfigError);
}

// ---------------------------------------------------------------------- tcp

TEST(TcpTransport, SocketPairRoundTrip) {
  auto [a, b] = socket_pair();
  const Bytes msg = testdata::random_bytes(100000, 5);
  a.send(msg);
  const auto got = b.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, msg);
}

TEST(TcpTransport, EmptyMessageRoundTrip) {
  auto [a, b] = socket_pair();
  a.send(Bytes{});
  const auto got = b.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(TcpTransport, ShutdownYieldsEndOfStream) {
  auto [a, b] = socket_pair();
  a.send(to_bytes("last"));
  a.shutdown_send();
  EXPECT_TRUE(b.receive().has_value());
  EXPECT_FALSE(b.receive().has_value());
}

TEST(TcpTransport, ListenerAcceptsLoopbackConnection) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread client([port = listener.port()] {
    TcpTransport t = tcp_connect(port);
    t.send(to_bytes("ping"));
    const auto reply = t.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(to_string(*reply), "pong");
  });

  TcpTransport server = listener.accept();
  const auto got = server.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "ping");
  server.send(to_bytes("pong"));
  client.join();
}

TEST(TcpTransport, ManyMessagesPreserveOrderAndContent) {
  auto [a, b] = socket_pair();
  std::thread sender([&a] {
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
      a.send(rng.bytes(1 + rng.below(5000)));
    }
    a.shutdown_send();
  });
  Rng rng(9);
  int received = 0;
  while (const auto msg = b.receive()) {
    const Bytes expected = rng.bytes(1 + rng.below(5000));
    ASSERT_EQ(*msg, expected);
    ++received;
  }
  sender.join();
  EXPECT_EQ(received, 200);
}

TEST(TcpTransport, MoveTransfersOwnership) {
  auto [a, b] = socket_pair();
  TcpTransport moved = std::move(a);
  moved.send(to_bytes("x"));
  EXPECT_TRUE(b.receive().has_value());
}

TEST(TcpTransport, RejectsInvalidDescriptor) {
  EXPECT_THROW(TcpTransport(-1), ConfigError);
}

// ----------------------------------------------------------- receive window

/// Naive model of ReceiveWindow, written straight from its contract: a set
/// of every delivered or settled sequence plus the cursor below which all
/// are in it, and a set of given-up ones. No pruning, no folding, no early
/// exits.
struct ReferenceWindow {
  ReferenceWindow(int cap, std::uint64_t window)
      : nack_retry_cap(cap), gap_window(window) {}

  int nack_retry_cap;
  std::uint64_t gap_window;
  std::set<std::uint64_t> done;
  std::uint64_t cursor = 0;
  std::optional<std::uint64_t> newest;
  std::map<std::uint64_t, int> attempts;
  std::set<std::uint64_t> given_up;
  std::uint64_t settled = 0;
  std::uint64_t outrun = 0;

  bool implausible(std::uint64_t seq) const {
    return seq > cursor && seq - cursor >= gap_window;
  }
  void mark(std::uint64_t seq) {
    done.insert(seq);
    given_up.erase(seq);
    while (done.count(cursor) > 0) ++cursor;
  }
  void settle(std::uint64_t seq) {
    ++settled;
    if (given_up.count(seq) == 0) ++outrun;
    mark(seq);
  }
  void accept(std::uint64_t seq) {
    if (!newest || seq > *newest) newest = seq;
    for (std::uint64_t m = cursor; m < *newest; ++m) {
      if (done.count(m) == 0 && *newest - m >= gap_window / 2) settle(m);
    }
  }
  std::vector<std::uint64_t> gaps() const {
    std::vector<std::uint64_t> out;
    if (!newest) return out;
    for (std::uint64_t m = cursor; m <= *newest; ++m) {
      if (done.count(m) == 0 && given_up.count(m) == 0) out.push_back(m);
    }
    return out;
  }
  std::vector<std::uint64_t> take_nacks() {
    std::vector<std::uint64_t> out;
    for (const std::uint64_t m : gaps()) {
      if (attempts[m] >= nack_retry_cap) {
        given_up.insert(m);
      } else {
        ++attempts[m];
        out.push_back(m);
      }
    }
    return out;
  }
  std::uint64_t abandoned() const { return settled + given_up.size(); }
};

TEST(ReceiveWindow, SettlesAGapTheStreamRanHalfAWindowPast) {
  ReceiveWindow window(3, 8);
  for (const std::uint64_t seq : {0, 2, 3, 4}) {
    window.accept(seq);
    window.deliver(seq);
  }
  EXPECT_EQ(window.gaps(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(window.next_expected(), 1u);
  EXPECT_TRUE(window.implausible(9));
  window.accept(5);  // gap_window / 2 past seq 1: settled
  EXPECT_EQ(window.abandoned(), 1u);
  EXPECT_EQ(window.outrun(), 1u);  // never NACKed
  EXPECT_FALSE(window.done(5));
  window.deliver(5);
  EXPECT_EQ(window.next_expected(), 6u);
  EXPECT_TRUE(window.done(1));  // a late copy is a duplicate
  EXPECT_TRUE(window.gaps().empty());
  EXPECT_FALSE(window.implausible(9));
}

TEST(ReceiveWindow, AGivenUpGapStillTakesALateCopyUntilItSettles) {
  ReceiveWindow window(2, 16);
  for (const std::uint64_t seq : {0, 2}) {
    window.accept(seq);
    window.deliver(seq);
  }
  EXPECT_EQ(window.take_nacks(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(window.take_nacks(), (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(window.take_nacks().empty());  // budget spent: given up
  EXPECT_EQ(window.abandoned(), 1u);
  EXPECT_TRUE(window.gaps().empty());
  EXPECT_EQ(window.next_expected(), 1u);  // not settled yet

  // The replay of the first NACK arrives behind a backlog.
  EXPECT_FALSE(window.done(1));
  window.accept(1);
  window.deliver(1);
  EXPECT_EQ(window.abandoned(), 0u);
  EXPECT_EQ(window.next_expected(), 3u);

  // Given up again, then settled once the stream runs 8 past it: now a
  // late copy is a duplicate, and the settle counts once.
  window.accept(4);
  window.deliver(4);
  for (int round = 0; round < 3; ++round) (void)window.take_nacks();
  EXPECT_EQ(window.abandoned(), 1u);
  window.accept(11);
  window.deliver(11);
  EXPECT_EQ(window.next_expected(), 5u);
  EXPECT_TRUE(window.done(3));
  EXPECT_EQ(window.abandoned(), 1u);
  EXPECT_EQ(window.outrun(), 0u);
  EXPECT_EQ(window.gaps(), (std::vector<std::uint64_t>{5, 6, 7, 8, 9, 10}));
}

TEST(ReceiveWindow, LossBurstsShorterThanHalfTheWindowNeverMeetTheGuard) {
  // No NACKs: every lost sequence must settle by distance alone, and no
  // honest sequence may ever be rejected, however the losses fall.
  constexpr std::uint64_t kWindow = 64, kSequences = 50000;
  Rng rng(11);
  ReceiveWindow window(3, kWindow);
  std::uint64_t delivered = 0, last = 0;
  bool after_loss = false;
  for (std::uint64_t seq = 0; seq < kSequences; ++seq) {
    if (!after_loss && rng.chance(0.05)) {
      seq += rng.below(kWindow / 2 - 1);  // lose 1 .. kWindow / 2 - 1
      after_loss = true;
      continue;
    }
    after_loss = false;
    ASSERT_FALSE(window.implausible(seq)) << "seq " << seq;
    window.accept(seq);
    ASSERT_FALSE(window.done(seq));
    window.deliver(seq);
    ++delivered;
    last = seq;
  }
  EXPECT_EQ(delivered + window.abandoned() + window.gaps().size(), last + 1);
  EXPECT_GT(window.abandoned(), kSequences / 50);
}

TEST(ReceiveWindow, MatchesReferenceModelOnRandomArrivalScripts) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const std::uint64_t gap_window = 1 + rng.below(40);
    const int cap = 1 + static_cast<int>(rng.below(4));
    ReceiveWindow window(cap, gap_window);
    ReferenceWindow ref(cap, gap_window);
    const std::string where = "seed " + std::to_string(seed) + " window " +
                              std::to_string(gap_window) + " cap " +
                              std::to_string(cap);

    // One arrival as both receivers handle it: guard, accept, then
    // deliver unless it is a duplicate.
    const auto arrive = [&](std::uint64_t seq) {
      const bool implausible = window.implausible(seq);
      ASSERT_EQ(implausible, ref.implausible(seq)) << where << " seq " << seq;
      if (implausible) return;
      window.accept(seq);
      ref.accept(seq);
      const bool done = window.done(seq);
      ASSERT_EQ(done, ref.done.count(seq) > 0) << where << " seq " << seq;
      if (done) return;
      window.deliver(seq);
      ref.mark(seq);
    };

    std::uint64_t next_fresh = 0;
    std::vector<std::uint64_t> held;  // reordered: released later
    for (int step = 0; step < 600; ++step) {
      const std::uint64_t roll = rng.below(100);
      if (roll < 55) {  // the sender's next frame: dropped, held or sent
        const std::uint64_t seq = next_fresh++;
        if (rng.chance(0.15)) continue;
        if (rng.chance(0.1)) {
          held.push_back(seq);
        } else {
          arrive(seq);
        }
      } else if (roll < 65) {
        if (held.empty()) continue;
        const std::size_t i = rng.below(held.size());
        arrive(held[i]);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (roll < 75) {  // a duplicate of something already sent
        if (next_fresh > 0) arrive(rng.below(next_fresh));
      } else if (roll < 82) {  // a forged sequence around the guard
        const std::uint64_t cursor = window.next_expected();
        const std::uint64_t forged[] = {UINT64_MAX, 1ull << 60,
                                        cursor + gap_window,
                                        cursor + gap_window - 1,
                                        cursor + gap_window + rng.below(1000)};
        arrive(forged[rng.below(5)]);
      } else {  // a NACK round; the sender honours about half of it
        const std::vector<std::uint64_t> nacks = window.take_nacks();
        ASSERT_EQ(nacks, ref.take_nacks()) << where << " step " << step;
        for (const std::uint64_t seq : nacks) {
          if (rng.chance(0.5)) arrive(seq);
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(window.next_expected(), ref.cursor) << where << " step " << step;
      ASSERT_EQ(window.gaps(), ref.gaps()) << where << " step " << step;
      ASSERT_EQ(window.abandoned(), ref.abandoned()) << where << " step " << step;
      ASSERT_EQ(window.outrun(), ref.outrun) << where << " step " << step;
      ASSERT_LT(window.gaps().size(), gap_window) << where;
    }
  }
}

}  // namespace
}  // namespace acex::transport
