#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "netsim/topology.hpp"
#include "stream_fingerprint.hpp"
#include "transport/tcp.hpp"

namespace kmsg::transport {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed = 0) {
  std::vector<std::uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

struct TcpFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<netsim::Network> net;
  netsim::Host* a = nullptr;
  netsim::Host* b = nullptr;

  void build(netsim::LinkConfig cfg, std::uint64_t seed = 42) {
    net = std::make_unique<netsim::Network>(sim, seed);
    a = &net->add_host();
    b = &net->add_host();
    net->add_duplex_link(a->id(), b->id(), cfg);
  }

  static netsim::LinkConfig fast_link() {
    netsim::LinkConfig cfg;
    cfg.bandwidth_bytes_per_sec = 100e6;
    cfg.propagation_delay = Duration::millis(5);
    cfg.queue_capacity_bytes = 1 << 20;
    return cfg;
  }
};

TEST_F(TcpFixture, HandshakeEstablishesBothSides) {
  build(fast_link());
  std::shared_ptr<TcpConnection> server;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) { server = std::move(conn); });
  bool client_connected = false;
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  client->set_on_connected([&] { client_connected = true; });
  sim.run();
  EXPECT_TRUE(client_connected);
  ASSERT_TRUE(server);
  EXPECT_EQ(client->state(), ConnState::kEstablished);
  EXPECT_EQ(server->state(), ConnState::kEstablished);
}

TEST_F(TcpFixture, SmallTransferIntegrity) {
  build(fast_link());
  std::shared_ptr<TcpConnection> server;
  std::vector<std::uint8_t> received;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) {
    server = conn;
    server->set_on_data([&](std::span<const std::uint8_t> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  const auto data = pattern_bytes(10'000);
  client->set_on_connected([&] { client->write(data); });
  sim.run();
  EXPECT_EQ(received, data);
  EXPECT_EQ(client->stats().bytes_acked, data.size());
}

TEST_F(TcpFixture, LargeTransferThroughLossyLink) {
  auto cfg = fast_link();
  cfg.random_loss_rate = 0.02;
  build(cfg, 7);
  std::shared_ptr<TcpConnection> server;
  std::vector<std::uint8_t> received;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) {
    server = conn;
    server->set_on_data([&](std::span<const std::uint8_t> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  TcpConfig tcfg;
  auto client = TcpConnection::connect(*a, b->id(), 80, tcfg);
  const auto data = pattern_bytes(2'000'000, 3);
  std::size_t written = 0;
  auto pump = [&] {
    while (written < data.size()) {
      const std::size_t n = client->write(
          std::span<const std::uint8_t>(data.data() + written, data.size() - written));
      written += n;
      if (n == 0) break;
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  sim.run();
  ASSERT_EQ(received.size(), data.size());
  EXPECT_EQ(received, data);  // integrity + FIFO under loss
  EXPECT_GT(client->stats().segments_retransmitted, 0u);
}

TEST_F(TcpFixture, ThroughputIsWindowLimitedAtHighRtt) {
  // With a 512 kB receive window and 155 ms RTT, throughput must be close to
  // window/RTT (~3.3 MB/s), far below the 120 MB/s link rate — the paper's
  // central TCP observation.
  auto cfg = netsim::link_config_for(netsim::Setup::kEu2Us);
  build(cfg);
  std::shared_ptr<TcpConnection> server;
  std::uint64_t received = 0;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) {
    server = conn;
    server->set_on_data(
        [&](std::span<const std::uint8_t> d) { received += d.size(); });
  });
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  const auto chunk = pattern_bytes(64 * 1024);
  auto pump = [&] {
    while (client->write(chunk) > 0) {
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  sim.run_until(TimePoint::zero() + Duration::seconds(20.0));

  const double rate = static_cast<double>(received) / 20.0;
  const double window_limit = 512.0 * 1024 / 0.155;
  EXPECT_LT(rate, window_limit * 1.25);
  EXPECT_GT(rate, window_limit * 0.5);
}

TEST_F(TcpFixture, ThroughputNearLinkRateAtLowRtt) {
  auto cfg = netsim::link_config_for(netsim::Setup::kEuVpc);
  build(cfg);
  std::shared_ptr<TcpConnection> server;
  std::uint64_t received = 0;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) {
    server = conn;
    server->set_on_data(
        [&](std::span<const std::uint8_t> d) { received += d.size(); });
  });
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  const auto chunk = pattern_bytes(64 * 1024);
  auto pump = [&] {
    while (client->write(chunk) > 0) {
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  sim.run_until(TimePoint::zero() + Duration::seconds(5.0));
  const double rate = static_cast<double>(received) / 5.0;
  EXPECT_GT(rate, 80e6);  // most of the 120 MB/s link
}

TEST_F(TcpFixture, BackpressureReportsWritableSpace) {
  build(fast_link());
  std::shared_ptr<TcpConnection> server;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) { server = std::move(conn); });
  TcpConfig tcfg;
  tcfg.send_buffer_bytes = 64 * 1024;
  auto client = TcpConnection::connect(*a, b->id(), 80, tcfg);
  // Before establishment, writes buffer up to the send buffer size.
  const auto big = pattern_bytes(200 * 1024);
  const std::size_t accepted = client->write(big);
  EXPECT_EQ(accepted, 64u * 1024);
  EXPECT_EQ(client->writable_bytes(), 0u);
  bool writable_fired = false;
  client->set_on_writable([&] { writable_fired = true; });
  sim.run();
  EXPECT_TRUE(writable_fired);
  EXPECT_GT(client->writable_bytes(), 0u);
}

TEST_F(TcpFixture, GracefulCloseDeliversAllDataThenCloses) {
  build(fast_link());
  std::shared_ptr<TcpConnection> server;
  std::vector<std::uint8_t> received;
  bool server_closed = false;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) {
    server = conn;
    server->set_on_data([&](std::span<const std::uint8_t> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
    server->set_on_closed([&] { server_closed = true; });
  });
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  bool client_closed = false;
  client->set_on_closed([&] { client_closed = true; });
  const auto data = pattern_bytes(100'000);
  client->set_on_connected([&] {
    client->write(data);
    client->close();
  });
  sim.run();
  EXPECT_EQ(received, data);
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(client->state(), ConnState::kClosed);
  EXPECT_EQ(server->state(), ConnState::kClosed);
}

TEST_F(TcpFixture, AbortResetsPeer) {
  build(fast_link());
  std::shared_ptr<TcpConnection> server;
  bool server_closed = false;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) {
    server = conn;
    server->set_on_closed([&] { server_closed = true; });
  });
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  client->set_on_connected([&] { client->abort(); });
  sim.run();
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(client->state(), ConnState::kClosed);
}

TEST_F(TcpFixture, ConnectToUnreachableHostGivesUp) {
  build(fast_link());
  // No listener on port 81: SYNs vanish into the unbound port.
  TcpConfig tcfg;
  tcfg.max_syn_retries = 2;
  tcfg.initial_rto = Duration::millis(50);
  bool closed = false;
  auto client = TcpConnection::connect(*a, b->id(), 81, tcfg);
  client->set_on_closed([&] { closed = true; });
  sim.run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(client->state(), ConnState::kClosed);
}

TEST_F(TcpFixture, HandshakeSurvivesSynLoss) {
  auto cfg = fast_link();
  cfg.random_loss_rate = 0.5;
  build(cfg, 11);
  std::shared_ptr<TcpConnection> server;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) { server = std::move(conn); });
  TcpConfig tcfg;
  tcfg.initial_rto = Duration::millis(100);
  tcfg.max_syn_retries = 20;
  bool connected = false;
  auto client = TcpConnection::connect(*a, b->id(), 80, tcfg);
  client->set_on_connected([&] { connected = true; });
  sim.run_until(TimePoint::zero() + Duration::seconds(30.0));
  EXPECT_TRUE(connected);
}

TEST_F(TcpFixture, CongestionWindowGrowsInSlowStart) {
  build(fast_link());
  std::shared_ptr<TcpConnection> server;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) { server = std::move(conn); });
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  const double initial_cwnd = client->cwnd_bytes();
  const auto data = pattern_bytes(300'000);
  client->set_on_connected([&] { client->write(data); });
  sim.run();
  EXPECT_GT(client->cwnd_bytes(), initial_cwnd);
}

TEST_F(TcpFixture, FastRetransmitRecoversSingleLossQuickly) {
  // Drop exactly one data segment via a very small random loss on a long
  // stream; recovery should avoid RTO-driven stalls in most cases, so total
  // time stays near the loss-free baseline.
  auto run_with_loss = [](double loss, std::uint64_t seed) {
    sim::Simulator local_sim;
    auto cfg = fast_link();
    cfg.random_loss_rate = loss;
    netsim::Network local_net(local_sim, seed);
    auto& ha = local_net.add_host();
    auto& hb = local_net.add_host();
    local_net.add_duplex_link(ha.id(), hb.id(), cfg);
    std::shared_ptr<TcpConnection> server;
    std::uint64_t received = 0;
    TcpConnection::Listener listener(hb, 80, {}, [&](auto conn) {
      server = conn;
      server->set_on_data(
          [&](std::span<const std::uint8_t> d) { received += d.size(); });
    });
    auto client = TcpConnection::connect(ha, hb.id(), 80, {});
    const auto data = pattern_bytes(1'000'000);
    std::size_t written = 0;
    auto pump = [&] {
      while (written < data.size()) {
        const std::size_t n = client->write(std::span<const std::uint8_t>(
            data.data() + written, data.size() - written));
        written += n;
        if (n == 0) break;
      }
    };
    client->set_on_connected(pump);
    client->set_on_writable(pump);
    local_sim.run();
    EXPECT_EQ(received, data.size());
    return local_sim.now();
  };
  const auto clean = run_with_loss(0.0, 1);
  const auto lossy = run_with_loss(0.005, 2);
  // Tail losses still cost an RTO (~200 ms); anything beyond a couple of
  // RTO episodes would indicate broken loss recovery.
  EXPECT_LT((lossy - TimePoint::zero()).as_seconds(),
            (clean - TimePoint::zero()).as_seconds() * 4.0 + 0.5);
}

TEST_F(TcpFixture, SenderGivesUpWhenPeerVanishes) {
  build(fast_link());
  // Accept and immediately drop the server connection: its port unbinds and
  // all client segments fall into the void.
  TcpConnection::Listener listener(*b, 80, {}, [](auto conn) { (void)conn; });
  TcpConfig tcfg;
  tcfg.min_rto = Duration::millis(50);
  tcfg.initial_rto = Duration::millis(50);
  tcfg.max_rto = Duration::millis(200);
  tcfg.max_data_retries = 4;
  auto client = TcpConnection::connect(*a, b->id(), 80, tcfg);
  bool closed = false;
  client->set_on_closed([&] { closed = true; });
  client->set_on_connected([&] {
    const auto data = pattern_bytes(10'000);
    client->write(data);
  });
  sim.run();  // must terminate: retransmissions give up
  EXPECT_TRUE(closed);
  EXPECT_EQ(client->state(), ConnState::kClosed);
  EXPECT_GE(client->stats().timeouts, 4u);
}

// A corrupted segment reaches the receiver as a flipped copy. The segment
// viewed the sender's own frame, which the send buffer still holds for
// retransmission; the flip must not reach those bytes.
TEST_F(TcpFixture, CorruptedSegmentLeavesTheSendersFrameIntact) {
  net = std::make_unique<netsim::Network>(sim, 11);
  a = &net->add_host();
  b = &net->add_host();
  auto dirty = fast_link();
  dirty.corrupt_rate = 0.2;
  net->add_link(a->id(), b->id(), dirty);
  net->add_link(b->id(), a->id(), fast_link());
  std::shared_ptr<TcpConnection> server;
  std::vector<std::uint8_t> received;
  TcpConnection::Listener listener(*b, 80, {}, [&](auto conn) {
    server = conn;
    server->set_on_data([&](std::span<const std::uint8_t> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  const auto data = pattern_bytes(200'000, 3);
  const auto frame = wire::BufSlice::copy_of({data.data(), data.size()});
  client->set_on_connected([&] { client->write(frame); });
  sim.run();
  ASSERT_GT(net->link(a->id(), b->id())->stats().corrupted, 0u);
  ASSERT_EQ(received.size(), data.size());
  EXPECT_NE(received, data) << "no flipped bit reached the receiver";
  EXPECT_EQ(client->stats().bytes_written, data.size());
  EXPECT_TRUE(std::equal(frame.span().begin(), frame.span().end(), data.begin()))
      << "the flip reached the sender's frame";
}

// Golden fingerprint of one TCP transfer through loss, duplication,
// corruption and reordering (see stream_fingerprint.hpp).
TEST(TcpFingerprint, FaultyLinkTransferIsPinned) {
  const std::string fp = fingerprint::run<TcpConnection::Listener, TcpConnection>(
      TcpConfig{}, 80, 2'000'000, 5, Duration::seconds(60.0),
      [](const std::string& p, const TcpConnection& c, fingerprint::Text& t) {
        t.add(p + ".cwnd_bytes", c.cwnd_bytes());
        t.add(p + ".ssthresh_bytes", c.ssthresh_bytes());
        t.add(p + ".inflight_bytes", std::uint64_t{c.inflight_bytes()});
      });
  EXPECT_EQ(fp, R"(done_ns=296302067
received=2000000
client.state=3
client.bytes_written=2000000
client.bytes_sent_wire=3705248
client.bytes_acked=2000000
client.bytes_delivered=0
client.segments_sent=453
client.segments_retransmitted=191
client.timeouts=0
client.smoothed_rtt_ns=32379149
client.cwnd_bytes=174332
client.ssthresh_bytes=174332
client.inflight_bytes=0
server.state=3
server.bytes_written=0
server.bytes_sent_wire=0
server.bytes_acked=0
server.bytes_delivered=2000000
server.segments_sent=0
server.segments_retransmitted=0
server.timeouts=0
server.smoothed_rtt_ns=0
server.cwnd_bytes=89280
server.ssthresh_bytes=1e+18
server.inflight_bytes=0
link_ab.datagrams_sent=456
link_ab.datagrams_delivered=457
link_ab.drops_queue_full=0
link_ab.drops_random=4
link_ab.drops_policer=0
link_ab.bytes_delivered=3732456
link_ab.drops_link_down=0
link_ab.drops_host_down=0
link_ab.drops_proto_blocked=0
link_ab.duplicated=5
link_ab.corrupted=3
link_ab.reordered=21
link_ba.datagrams_sent=454
link_ba.datagrams_delivered=454
link_ba.drops_queue_full=0
link_ba.drops_random=3
link_ba.drops_policer=0
link_ba.bytes_delivered=18160
link_ba.drops_link_down=0
link_ba.drops_host_down=0
link_ba.drops_proto_blocked=0
link_ba.duplicated=3
link_ba.corrupted=4
link_ba.reordered=33
)");
}

TEST_F(TcpFixture, LateSynDoesNotSpawnGhostConnection) {
  // The first SYN is delayed by up to 3 s; the retransmitted SYN (after the
  // 1 s initial RTO) establishes the connection, and the original arrives
  // afterwards. The listener must hand it to the live connection: a second
  // "ghost" server connection would retry its SYN|ACK into the void and
  // finally reset the client's healthy connection.
  auto cfg = fast_link();
  cfg.reorder_rate = 1.0;
  cfg.reorder_jitter = Duration::seconds(3.0);
  build(cfg, 2);
  sim.schedule_after(Duration::millis(1), [&] {
    net->link(a->id(), b->id())->set_reorder(0.0, Duration::zero());
    net->link(b->id(), a->id())->set_reorder(0.0, Duration::zero());
  });
  std::vector<std::shared_ptr<TcpConnection>> accepted;
  TcpConnection::Listener listener(*b, 80, {},
                       [&](auto conn) { accepted.push_back(std::move(conn)); });
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  sim.run_until(TimePoint::zero() + Duration::seconds(300.0));
  EXPECT_EQ(accepted.size(), 1u);
  EXPECT_EQ(client->state(), ConnState::kEstablished);
}

TEST_F(TcpFixture, ListenerForgetsClosedAndDestroyedConnections) {
  build(fast_link());
  std::shared_ptr<TcpConnection> server;
  TcpConnection::Listener listener(*b, 80, {},
                                   [&](auto conn) { server = std::move(conn); });
  // A connection that closes leaves the listener's table.
  auto client = TcpConnection::connect(*a, b->id(), 80, {});
  client->set_on_connected([&] { client->close(); });
  sim.run();
  ASSERT_TRUE(server);
  EXPECT_EQ(server->state(), ConnState::kClosed);
  EXPECT_EQ(listener.tracked(), 0u);
  // So does one that is destroyed while still open.
  auto client2 = TcpConnection::connect(*a, b->id(), 80, {});
  sim.run();
  EXPECT_EQ(server->state(), ConnState::kEstablished);
  EXPECT_EQ(listener.tracked(), 1u);
  server.reset();
  EXPECT_EQ(listener.tracked(), 0u);
}

}  // namespace
}  // namespace kmsg::transport
