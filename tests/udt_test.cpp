#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "netsim/topology.hpp"
#include "stream_fingerprint.hpp"
#include "transport/udt.hpp"

namespace kmsg::transport {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed = 0) {
  std::vector<std::uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

struct UdtFixture : ::testing::Test {
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
    cfg.queue_capacity_bytes = 1 << 21;
    return cfg;
  }

  struct Endpoints {
    std::shared_ptr<UdtConnection> client;
    std::shared_ptr<UdtConnection> server;
  };

  /// Sets up a transfer of `data`; returns after sim completes.
  std::uint64_t run_transfer(const std::vector<std::uint8_t>& data,
                             UdtConfig ucfg, std::vector<std::uint8_t>* sink,
                             Duration max_time = Duration::seconds(300.0)) {
    std::shared_ptr<UdtConnection> server;
    std::uint64_t received = 0;
    UdtConnection::Listener listener(*b, 90, ucfg, [&](auto conn) {
      server = conn;
      server->set_on_data([&](std::span<const std::uint8_t> d) {
        received += d.size();
        if (sink) sink->insert(sink->end(), d.begin(), d.end());
      });
    });
    auto client = UdtConnection::connect(*a, b->id(), 90, ucfg);
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
    // Advance in slices so sim.now() approximates the completion time.
    while (sim.now() < TimePoint::zero() + max_time && received < data.size()) {
      sim.run_until(sim.now() + Duration::millis(100));
    }
    return received;
  }
};

TEST_F(UdtFixture, HandshakeEstablishes) {
  build(fast_link());
  std::shared_ptr<UdtConnection> server;
  UdtConnection::Listener listener(*b, 90, {}, [&](auto conn) { server = std::move(conn); });
  bool connected = false;
  auto client = UdtConnection::connect(*a, b->id(), 90, {});
  client->set_on_connected([&] { connected = true; });
  sim.run_until(TimePoint::zero() + Duration::seconds(2.0));
  EXPECT_TRUE(connected);
  ASSERT_TRUE(server);
  EXPECT_EQ(server->state(), ConnState::kEstablished);
}

TEST_F(UdtFixture, TransferIntegrity) {
  build(fast_link());
  const auto data = pattern_bytes(3'000'000, 5);
  std::vector<std::uint8_t> sink;
  const auto received = run_transfer(data, {}, &sink);
  ASSERT_EQ(received, data.size());
  EXPECT_EQ(sink, data);
}

TEST_F(UdtFixture, TransferIntegrityUnderLoss) {
  auto cfg = fast_link();
  cfg.random_loss_rate = 0.03;
  build(cfg, 9);
  const auto data = pattern_bytes(2'000'000, 6);
  std::vector<std::uint8_t> sink;
  const auto received = run_transfer(data, {}, &sink);
  ASSERT_EQ(received, data.size());
  EXPECT_EQ(sink, data);
}

TEST_F(UdtFixture, ThroughputInsensitiveToRtt) {
  // The paper's core UDT property: rate-based control keeps throughput
  // nearly flat as RTT grows (policer-limited to ~10 MB/s on EC2-like
  // links).
  auto measure = [&](netsim::Setup setup) {
    sim::Simulator local_sim;
    netsim::TwoHostWorld world(local_sim, setup, 3);
    std::shared_ptr<UdtConnection> server;
    std::uint64_t received = 0;
    UdtConfig ucfg;
    ucfg.recv_buffer_bytes = 100 * 1024 * 1024;  // paper's tuned buffers
    ucfg.send_buffer_bytes = 100 * 1024 * 1024;
    UdtConnection::Listener listener(world.net.host(world.receiver), 90, ucfg,
                         [&](auto conn) {
                           server = conn;
                           server->set_on_data(
                               [&](std::span<const std::uint8_t> d) {
                                 received += d.size();
                               });
                         });
    auto client = UdtConnection::connect(world.net.host(world.sender),
                                         world.receiver, 90, ucfg);
    const auto chunk = pattern_bytes(256 * 1024);
    auto pump = [&] {
      while (client->write(chunk) > 0) {
      }
    };
    client->set_on_connected(pump);
    client->set_on_writable(pump);
    local_sim.run_until(TimePoint::zero() + Duration::seconds(30.0));
    return static_cast<double>(received) / 30.0;
  };

  const double at_vpc = measure(netsim::Setup::kEuVpc);
  const double at_au = measure(netsim::Setup::kEu2Au);
  // Both near the 10 MB/s policer rate; high RTT costs at most ~2.5x.
  EXPECT_GT(at_vpc, 5e6);
  EXPECT_LT(at_vpc, 14e6);
  EXPECT_GT(at_au, 4e6);
  EXPECT_GT(at_au, at_vpc * 0.4);
}

TEST_F(UdtFixture, SmallReceiveBufferDegradesHighBdpThroughput) {
  // The paper had to raise UDT's protocol buffers from 12 MB to 100 MB to
  // avoid receiver-side losses on high-BDP links. Reproduce the ablation:
  // a cramped receive buffer must cost throughput on a long fat link.
  auto measure = [&](std::size_t recv_buf) {
    sim::Simulator local_sim;
    netsim::LinkConfig cfg;
    cfg.bandwidth_bytes_per_sec = 120e6;
    cfg.propagation_delay = Duration::millis(160);
    cfg.queue_capacity_bytes = 4 << 20;
    // No policer: expose the buffer limit itself.
    netsim::Network local_net(local_sim, 4);
    auto& ha = local_net.add_host();
    auto& hb = local_net.add_host();
    local_net.add_duplex_link(ha.id(), hb.id(), cfg);
    std::shared_ptr<UdtConnection> server;
    std::uint64_t received = 0;
    UdtConfig ucfg;
    ucfg.recv_buffer_bytes = recv_buf;
    ucfg.max_rate_bytes_per_sec = 100e6;
    UdtConnection::Listener listener(hb, 90, ucfg, [&](auto conn) {
      server = conn;
      server->set_on_data(
          [&](std::span<const std::uint8_t> d) { received += d.size(); });
    });
    auto client = UdtConnection::connect(ha, hb.id(), 90, ucfg);
    const auto chunk = pattern_bytes(256 * 1024);
    auto pump = [&] {
      while (client->write(chunk) > 0) {
      }
    };
    client->set_on_connected(pump);
    client->set_on_writable(pump);
    local_sim.run_until(TimePoint::zero() + Duration::seconds(30.0));
    return static_cast<double>(received) / 30.0;
  };
  const double small = measure(640 * 1024);        // well under BDP (~32MB)
  const double large = measure(100 * 1024 * 1024);  // paper's tuned size
  EXPECT_GT(large, small * 2.0);
}

TEST_F(UdtFixture, RateConvergesUnderPolicer) {
  auto cfg = fast_link();
  cfg.udp_policer = netsim::PolicerConfig{10e6, 512 * 1024};
  build(cfg);
  const auto data = pattern_bytes(8'000'000, 8);
  std::vector<std::uint8_t> sink;
  const auto received = run_transfer(data, {}, &sink, Duration::seconds(60.0));
  ASSERT_EQ(received, data.size());
  EXPECT_EQ(sink, data);
  // 8 MB at ~10 MB/s with ramp-up: between ~0.8 s and a few seconds.
  EXPECT_GT(sim.now().as_seconds(), 0.7);
  EXPECT_LT(sim.now().as_seconds(), 10.0);
}

TEST_F(UdtFixture, GracefulCloseAfterDrain) {
  build(fast_link());
  std::shared_ptr<UdtConnection> server;
  std::uint64_t received = 0;
  bool server_closed = false;
  UdtConnection::Listener listener(*b, 90, {}, [&](auto conn) {
    server = conn;
    server->set_on_data(
        [&](std::span<const std::uint8_t> d) { received += d.size(); });
    server->set_on_closed([&] { server_closed = true; });
  });
  auto client = UdtConnection::connect(*a, b->id(), 90, {});
  bool client_closed = false;
  client->set_on_closed([&] { client_closed = true; });
  const auto data = pattern_bytes(500'000);
  client->set_on_connected([&] {
    client->write(data);
    client->close();
  });
  sim.run_until(TimePoint::zero() + Duration::seconds(30.0));
  EXPECT_EQ(received, data.size());
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
}

TEST_F(UdtFixture, ConnectTimeoutWithoutListener) {
  build(fast_link());
  UdtConfig ucfg;
  ucfg.handshake_retries = 2;
  ucfg.handshake_rto = Duration::millis(50);
  bool closed = false;
  auto client = UdtConnection::connect(*a, b->id(), 91, ucfg);
  client->set_on_closed([&] { closed = true; });
  sim.run();
  EXPECT_TRUE(closed);
}

TEST_F(UdtFixture, BandwidthEstimateApproachesLinkRate) {
  // Packet-pair probing: the receiver's estimate (reported back in ACKs and
  // mirrored in the sender's CC state) should land within a factor ~2 of the
  // 100 MB/s link rate once enough probes flowed.
  build(fast_link());
  std::shared_ptr<UdtConnection> server;
  UdtConnection::Listener listener(*b, 90, {}, [&](auto conn) { server = std::move(conn); });
  auto client = UdtConnection::connect(*a, b->id(), 90, {});
  const auto chunk = pattern_bytes(256 * 1024);
  auto pump = [&] {
    while (client->write(chunk) > 0) {
    }
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  sim.run_until(TimePoint::zero() + Duration::seconds(10.0));
  const double est = client->cc_stats().est_link_bandwidth;
  EXPECT_GT(est, 50e6);
  EXPECT_LT(est, 200e6);
}

TEST_F(UdtFixture, WritableCallbackFiresAfterBufferDrain) {
  build(fast_link());
  UdtConfig ucfg;
  ucfg.send_buffer_bytes = 128 * 1024;
  std::shared_ptr<UdtConnection> server;
  UdtConnection::Listener listener(*b, 90, ucfg, [&](auto conn) { server = std::move(conn); });
  auto client = UdtConnection::connect(*a, b->id(), 90, ucfg);
  const auto big = pattern_bytes(512 * 1024);
  const std::size_t accepted = client->write(big);
  EXPECT_LE(accepted, 128u * 1024);
  bool writable = false;
  client->set_on_writable([&] { writable = true; });
  sim.run_until(TimePoint::zero() + Duration::seconds(10.0));
  EXPECT_TRUE(writable);
}

// A corrupted packet reaches the receiver as a flipped copy. The packet
// viewed the sender's own frame, which the send buffer still holds for
// retransmission; the flip must not reach those bytes.
TEST_F(UdtFixture, CorruptedPacketLeavesTheSendersFrameIntact) {
  net = std::make_unique<netsim::Network>(sim, 11);
  a = &net->add_host();
  b = &net->add_host();
  auto dirty = fast_link();
  dirty.corrupt_rate = 0.2;
  net->add_link(a->id(), b->id(), dirty);
  net->add_link(b->id(), a->id(), fast_link());
  std::shared_ptr<UdtConnection> server;
  std::vector<std::uint8_t> received;
  UdtConnection::Listener listener(*b, 90, {}, [&](auto conn) {
    server = conn;
    server->set_on_data([&](std::span<const std::uint8_t> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  auto client = UdtConnection::connect(*a, b->id(), 90, {});
  const auto data = pattern_bytes(200'000, 3);
  const auto frame = wire::BufSlice::copy_of({data.data(), data.size()});
  client->set_on_connected([&] { client->write(frame); });
  sim.run_until(TimePoint::zero() + Duration::seconds(10.0));
  ASSERT_GT(net->link(a->id(), b->id())->stats().corrupted, 0u);
  ASSERT_EQ(received.size(), data.size());
  EXPECT_NE(received, data) << "no flipped bit reached the receiver";
  EXPECT_EQ(client->stats().bytes_written, data.size());
  EXPECT_TRUE(std::equal(frame.span().begin(), frame.span().end(), data.begin()))
      << "the flip reached the sender's frame";
}

// Golden fingerprint of one UDT transfer through loss, duplication,
// corruption and reordering (see stream_fingerprint.hpp).
TEST(UdtFingerprint, FaultyLinkTransferIsPinned) {
  const std::string fp = fingerprint::run<UdtConnection::Listener, UdtConnection>(
      UdtConfig{}, 90, 2'000'000, 5, Duration::seconds(30.0),
      [](const std::string& p, const UdtConnection& c, fingerprint::Text& t) {
        const auto& cc = c.cc_stats();
        t.add(p + ".rate_bytes_per_sec", cc.rate_bytes_per_sec);
        t.add(p + ".est_link_bandwidth", cc.est_link_bandwidth);
        t.add(p + ".naks_received", cc.naks_received);
        t.add(p + ".rate_decreases", cc.rate_decreases);
        t.add(p + ".exp_events", cc.exp_events);
      });
  EXPECT_EQ(fp, R"(done_ns=214209850
received=2000000
client.state=3
client.bytes_written=2000000
client.bytes_sent_wire=2089280
client.bytes_acked=2000000
client.bytes_delivered=0
client.segments_sent=235
client.segments_retransmitted=10
client.timeouts=0
client.smoothed_rtt_ns=0
client.rate_bytes_per_sec=30098360.49382716
client.est_link_bandwidth=20000000
client.naks_received=10
client.rate_decreases=3
client.exp_events=0
server.state=3
server.bytes_written=0
server.bytes_sent_wire=0
server.bytes_acked=0
server.bytes_delivered=2000000
server.segments_sent=0
server.segments_retransmitted=0
server.timeouts=0
server.smoothed_rtt_ns=0
server.rate_bytes_per_sec=45000000
server.est_link_bandwidth=0
server.naks_received=0
server.rate_decreases=0
server.exp_events=0
link_ab.datagrams_sent=258
link_ab.datagrams_delivered=257
link_ab.drops_queue_full=0
link_ab.drops_random=3
link_ab.drops_policer=0
link_ab.bytes_delivered=2100908
link_ab.drops_link_down=0
link_ab.drops_host_down=0
link_ab.drops_proto_blocked=0
link_ab.duplicated=2
link_ab.corrupted=2
link_ab.reordered=12
link_ba.datagrams_sent=34
link_ba.datagrams_delivered=34
link_ba.drops_queue_full=0
link_ba.drops_random=0
link_ba.drops_policer=0
link_ba.bytes_delivered=2064
link_ba.drops_link_down=0
link_ba.drops_host_down=0
link_ba.drops_proto_blocked=0
link_ba.duplicated=0
link_ba.corrupted=0
link_ba.reordered=3
)");
}

TEST_F(UdtFixture, LateHandshakeRequestDoesNotSpawnGhostConnection) {
  // A handshake request delayed past the retried one that established the
  // connection is answered by the live connection, never accepted twice.
  auto cfg = fast_link();
  cfg.reorder_rate = 1.0;
  cfg.reorder_jitter = Duration::seconds(3.0);
  build(cfg, 2);
  sim.schedule_after(Duration::millis(1), [&] {
    net->link(a->id(), b->id())->set_reorder(0.0, Duration::zero());
    net->link(b->id(), a->id())->set_reorder(0.0, Duration::zero());
  });
  std::vector<std::shared_ptr<UdtConnection>> accepted;
  UdtConnection::Listener listener(*b, 90, {},
                       [&](auto conn) { accepted.push_back(std::move(conn)); });
  auto client = UdtConnection::connect(*a, b->id(), 90, {});
  sim.run_until(TimePoint::zero() + Duration::seconds(300.0));
  EXPECT_EQ(accepted.size(), 1u);
  EXPECT_EQ(client->state(), ConnState::kEstablished);
}

}  // namespace
}  // namespace kmsg::transport
