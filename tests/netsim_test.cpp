#include <gtest/gtest.h>

#include "netsim/topology.hpp"

namespace kmsg::netsim {
namespace {

struct TestBody : DatagramBody {
  explicit TestBody(int v) : value(v) {}
  int value;
};

Datagram make_dg(HostId dst, Port dst_port, std::size_t wire, IpProto proto,
                 int tag = 0) {
  Datagram dg;
  dg.dst = dst;
  dg.dst_port = dst_port;
  dg.proto = proto;
  dg.wire_bytes = wire;
  dg.body = std::make_shared<TestBody>(tag);
  return dg;
}

class NetsimTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
};

TEST_F(NetsimTest, DeliversWithPropagationAndSerialisationDelay) {
  Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  cfg.propagation_delay = Duration::millis(10);
  net.add_link(a.id(), b.id(), cfg);

  TimePoint arrival;
  b.bind(IpProto::kUdp, 5, [&](const Datagram&) { arrival = sim.now(); });
  a.send(make_dg(b.id(), 5, 1000, IpProto::kUdp));
  sim.run();
  // 1000 bytes at 1 MB/s = 1 ms serialisation + 10 ms propagation.
  EXPECT_EQ(arrival.as_nanos(), Duration::millis(11).as_nanos());
}

TEST_F(NetsimTest, BandwidthSerialisesBackToBack) {
  Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e6;
  cfg.propagation_delay = Duration::zero();
  net.add_link(a.id(), b.id(), cfg);

  std::vector<TimePoint> arrivals;
  b.bind(IpProto::kUdp, 5, [&](const Datagram&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) a.send(make_dg(b.id(), 5, 1000, IpProto::kUdp));
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0].as_nanos(), Duration::millis(1).as_nanos());
  EXPECT_EQ(arrivals[1].as_nanos(), Duration::millis(2).as_nanos());
  EXPECT_EQ(arrivals[2].as_nanos(), Duration::millis(3).as_nanos());
}

TEST_F(NetsimTest, QueueOverflowDropsTail) {
  Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e6;
  cfg.queue_capacity_bytes = 2500;  // fits 2 x 1000B after the in-flight one
  auto& link = net.add_link(a.id(), b.id(), cfg);

  int delivered = 0;
  b.bind(IpProto::kUdp, 5, [&](const Datagram&) { ++delivered; });
  for (int i = 0; i < 10; ++i) a.send(make_dg(b.id(), 5, 1000, IpProto::kUdp));
  sim.run();
  EXPECT_GT(link.stats().drops_queue_full, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered),
            link.stats().datagrams_delivered);
  EXPECT_LT(delivered, 10);
}

TEST_F(NetsimTest, RandomLossDropsApproximatelyAtRate) {
  Network net(sim, 99);
  auto& a = net.add_host();
  auto& b = net.add_host();
  LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e9;
  cfg.random_loss_rate = 0.2;
  cfg.queue_capacity_bytes = 1u << 30;
  auto& link = net.add_link(a.id(), b.id(), cfg);

  int delivered = 0;
  b.bind(IpProto::kUdp, 5, [&](const Datagram&) { ++delivered; });
  const int n = 10000;
  for (int i = 0; i < n; ++i) a.send(make_dg(b.id(), 5, 100, IpProto::kUdp));
  sim.run();
  EXPECT_NEAR(static_cast<double>(link.stats().drops_random) / n, 0.2, 0.02);
  EXPECT_EQ(delivered + static_cast<int>(link.stats().drops_random), n);
}

TEST_F(NetsimTest, PolicerLimitsUdpButNotTcp) {
  Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 100e6;
  cfg.queue_capacity_bytes = 1u << 30;
  cfg.udp_policer = PolicerConfig{1e6, 10'000};  // 1 MB/s, 10 kB burst
  net.add_link(a.id(), b.id(), cfg);

  std::uint64_t udp_bytes = 0, tcp_bytes = 0;
  b.bind(IpProto::kUdp, 5, [&](const Datagram& d) { udp_bytes += d.wire_bytes; });
  b.bind(IpProto::kTcp, 5, [&](const Datagram& d) { tcp_bytes += d.wire_bytes; });

  // Offer 10 MB of each protocol over one second.
  const int pkts = 10000;
  for (int i = 0; i < pkts; ++i) {
    sim.schedule_after(Duration::micros(i * 100), [&net, &a, &b] {
      a.send(make_dg(b.id(), 5, 1000, IpProto::kUdp));
      a.send(make_dg(b.id(), 5, 1000, IpProto::kTcp));
      (void)net;
    });
  }
  sim.run();
  EXPECT_EQ(tcp_bytes, static_cast<std::uint64_t>(pkts) * 1000);
  // UDP passes roughly the policer rate (1 MB over the 1 s offer window).
  EXPECT_LT(udp_bytes, 1'300'000u);
  EXPECT_GT(udp_bytes, 700'000u);
}

TEST_F(NetsimTest, NoRouteCountsDrop) {
  Network net(sim);
  auto& a = net.add_host();
  net.add_host();
  a.send(make_dg(1, 5, 100, IpProto::kUdp));
  sim.run();
  EXPECT_EQ(net.routing_drops(), 1u);
}

TEST_F(NetsimTest, UnboundPortDropsSilently) {
  Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.add_duplex_link(a.id(), b.id(), LinkConfig{});
  int delivered = 0;
  b.bind(IpProto::kUdp, 6, [&](const Datagram&) { ++delivered; });
  a.send(make_dg(b.id(), 5, 100, IpProto::kUdp));  // wrong port
  sim.run();
  EXPECT_EQ(delivered, 0);
}

TEST_F(NetsimTest, BindRejectsDuplicates) {
  Network net(sim);
  auto& a = net.add_host();
  EXPECT_TRUE(a.bind(IpProto::kUdp, 5, [](const Datagram&) {}));
  EXPECT_FALSE(a.bind(IpProto::kUdp, 5, [](const Datagram&) {}));
  EXPECT_TRUE(a.bind(IpProto::kTcp, 5, [](const Datagram&) {}));  // distinct proto
  a.unbind(IpProto::kUdp, 5);
  EXPECT_TRUE(a.bind(IpProto::kUdp, 5, [](const Datagram&) {}));
}

TEST_F(NetsimTest, EphemeralPortsAreUnique) {
  Network net(sim);
  auto& a = net.add_host();
  const Port p1 = a.bind_ephemeral(IpProto::kUdp, [](const Datagram&) {});
  const Port p2 = a.bind_ephemeral(IpProto::kUdp, [](const Datagram&) {});
  EXPECT_NE(p1, p2);
  EXPECT_GE(p1, 49152);
}

TEST_F(NetsimTest, TopologySetupsHaveExpectedRtts) {
  EXPECT_EQ(rtt_of(Setup::kLocal).as_nanos(), Duration::micros(50).as_nanos());
  EXPECT_EQ(rtt_of(Setup::kEuVpc).as_nanos(), Duration::millis(3).as_nanos());
  EXPECT_EQ(rtt_of(Setup::kEu2Us).as_nanos(), Duration::millis(155).as_nanos());
  EXPECT_EQ(rtt_of(Setup::kEu2Au).as_nanos(), Duration::millis(320).as_nanos());
}

TEST_F(NetsimTest, TopologyPolicerOnlyOnRemoteSetups) {
  EXPECT_FALSE(link_config_for(Setup::kLocal).udp_policer.has_value());
  EXPECT_TRUE(link_config_for(Setup::kEuVpc).udp_policer.has_value());
  EXPECT_TRUE(link_config_for(Setup::kEu2Us).udp_policer.has_value());
  EXPECT_TRUE(link_config_for(Setup::kEu2Au).udp_policer.has_value());
}

TEST_F(NetsimTest, TwoHostWorldConnectsBothDirections) {
  TwoHostWorld world(sim, Setup::kEuVpc, 1);
  EXPECT_NE(world.net.link(world.sender, world.receiver), nullptr);
  EXPECT_NE(world.net.link(world.receiver, world.sender), nullptr);

  bool got = false;
  world.net.host(world.receiver).bind(IpProto::kUdp, 9,
                                      [&](const Datagram&) { got = true; });
  world.net.host(world.sender).send(make_dg(world.receiver, 9, 100, IpProto::kUdp));
  sim.run();
  EXPECT_TRUE(got);
}

TEST_F(NetsimTest, RuntimeLinkReconfiguration) {
  Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e9;
  cfg.propagation_delay = Duration::millis(5);
  auto& link = net.add_link(a.id(), b.id(), cfg);

  std::vector<TimePoint> arrivals;
  b.bind(IpProto::kUdp, 5, [&](const Datagram&) { arrivals.push_back(sim.now()); });
  a.send(make_dg(b.id(), 5, 1000, IpProto::kUdp));
  sim.run();
  link.set_propagation_delay(Duration::millis(50));
  a.send(make_dg(b.id(), 5, 1000, IpProto::kUdp));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const auto gap = arrivals[1] - arrivals[0];
  EXPECT_GT(gap, Duration::millis(45));
}

TEST_F(NetsimTest, ForEachLinkVisitsInAscendingSrcDstOrder) {
  Network net(sim);
  for (int i = 0; i < 5; ++i) net.add_host();
  const std::vector<std::pair<HostId, HostId>> scrambled = {
      {3, 1}, {0, 4}, {4, 0}, {1, 2}, {0, 1}, {2, 2}, {4, 3}, {1, 0}, {0, 2}};
  for (const auto& [src, dst] : scrambled) net.add_link(src, dst, LinkConfig{});

  std::vector<std::pair<HostId, HostId>> visited;
  net.for_each_link(
      [&](HostId src, HostId dst, Link&) { visited.emplace_back(src, dst); });
  const std::vector<std::pair<HostId, HostId>> expected = {
      {0, 1}, {0, 2}, {0, 4}, {1, 0}, {1, 2}, {2, 2}, {3, 1}, {4, 0}, {4, 3}};
  EXPECT_EQ(visited, expected);
}

TEST_F(NetsimTest, AddLinkOverAnExistingPairReplacesIt) {
  Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  LinkConfig slow;
  slow.propagation_delay = Duration::millis(40);
  LinkConfig fast;
  fast.propagation_delay = Duration::millis(2);
  net.add_link(a.id(), b.id(), slow);
  Link& replaced = net.add_link(a.id(), b.id(), fast);
  EXPECT_EQ(net.link(a.id(), b.id()), &replaced);
  EXPECT_EQ(replaced.config().propagation_delay.as_nanos(),
            Duration::millis(2).as_nanos());

  int visits = 0;
  net.for_each_link([&](HostId, HostId, Link&) { ++visits; });
  EXPECT_EQ(visits, 1);

  TimePoint arrival;
  b.bind(IpProto::kUdp, 5, [&](const Datagram&) { arrival = sim.now(); });
  a.send(make_dg(b.id(), 5, 1, IpProto::kUdp));
  sim.run();
  EXPECT_LT(arrival.as_nanos(), Duration::millis(3).as_nanos());
}

TEST_F(NetsimTest, LinkLookupOfAnUnknownHostIsNull) {
  Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.add_link(a.id(), b.id(), LinkConfig{});
  const Network& cnet = net;
  EXPECT_NE(cnet.link(a.id(), b.id()), nullptr);
  EXPECT_EQ(net.link(b.id(), a.id()), nullptr);  // no reverse link
  EXPECT_EQ(net.link(a.id(), 7), nullptr);       // unknown destination
  EXPECT_EQ(net.link(7, a.id()), nullptr);       // unknown source
  EXPECT_EQ(cnet.link(7, 9), nullptr);
}

TEST_F(NetsimTest, RebindAfterUnbindDeliversToTheNewHandler) {
  Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.add_link(a.id(), b.id(), LinkConfig{});
  int first = 0, second = 0, other = 0;
  ASSERT_TRUE(b.bind(IpProto::kUdp, 5, [&](const Datagram&) { ++first; }));
  ASSERT_TRUE(b.bind(IpProto::kUdp, 6, [&](const Datagram&) { ++other; }));
  b.unbind(IpProto::kUdp, 5);
  EXPECT_FALSE(b.bound(IpProto::kUdp, 5));
  EXPECT_TRUE(b.bound(IpProto::kUdp, 6));
  ASSERT_TRUE(b.bind(IpProto::kUdp, 5, [&](const Datagram&) { ++second; }));
  a.send(make_dg(b.id(), 5, 100, IpProto::kUdp));
  a.send(make_dg(b.id(), 6, 100, IpProto::kUdp));
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(other, 1);
}

TEST_F(NetsimTest, EphemeralPortIsReusedOnlyAfterTheWrap) {
  Network net(sim);
  auto& a = net.add_host();
  const auto noop = [](const Datagram&) {};
  const Port first = a.bind_ephemeral(IpProto::kUdp, noop);
  ASSERT_EQ(first, 49152);
  a.unbind(IpProto::kUdp, first);
  // The freed port is not handed out again until the counter wraps.
  Port p = a.bind_ephemeral(IpProto::kUdp, noop);
  EXPECT_EQ(p, first + 1);
  const Port held = p;  // stays bound across the wrap
  for (Port expect = held + 1; expect != 0; ++expect) {
    p = a.bind_ephemeral(IpProto::kUdp, noop);
    ASSERT_EQ(p, expect);
    a.unbind(IpProto::kUdp, p);
  }
  // Wrapped: 49152 is free again, and the still-bound port is skipped.
  EXPECT_EQ(a.bind_ephemeral(IpProto::kUdp, noop), first);
  EXPECT_EQ(a.bind_ephemeral(IpProto::kUdp, noop), held + 1);
}

}  // namespace
}  // namespace kmsg::netsim
