// Chaos harness tests: deterministic network fault injection.
//
// Part A exercises the netsim fault primitives in isolation (duplication,
// corruption, delay-jitter reordering, link flaps, partitions) and the
// ChaosSchedule driver. Part B runs the full messaging stack under scripted
// fault timelines: exactly-once delivery through a partition via the
// ReliableChannel, framing-CRC corruption detection with session
// re-establishment, bit-identical replay of a seeded chaos scenario, and the
// TD ratio learner re-converging after a chaos-driven RTT shift.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"
#include "apps/messages.hpp"
#include "messaging/reliable.hpp"
#include "netsim/chaos.hpp"
#include "netsim/topology.hpp"
#include "chaos_repro.hpp"

namespace kmsg {
namespace {

using apps::PingMsg;
using messaging::Transport;

// --- Part A: netsim fault primitives --------------------------------------

struct TagBody : netsim::DatagramBody {
  explicit TagBody(int v) : value(v) {}
  int value;
};

netsim::Datagram make_dg(netsim::HostId dst, netsim::Port port,
                         std::size_t wire, int tag = 0) {
  netsim::Datagram dg;
  dg.dst = dst;
  dg.dst_port = port;
  dg.proto = netsim::IpProto::kUdp;
  dg.wire_bytes = wire;
  dg.body = std::make_shared<TagBody>(tag);
  return dg;
}

class ChaosNetsimTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
};

TEST_F(ChaosNetsimTest, DuplicationDeliversTwice) {
  netsim::Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  netsim::LinkConfig cfg;
  cfg.duplicate_rate = 1.0;
  net.add_link(a.id(), b.id(), cfg);

  int delivered = 0;
  b.bind(netsim::IpProto::kUdp, 5, [&](const netsim::Datagram&) { ++delivered; });
  for (int i = 0; i < 10; ++i) a.send(make_dg(b.id(), 5, 100, i));
  sim.run();

  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(net.link(a.id(), b.id())->stats().duplicated, 10u);
}

TEST_F(ChaosNetsimTest, CorruptionMarksDatagrams) {
  netsim::Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  netsim::LinkConfig cfg;
  cfg.corrupt_rate = 1.0;
  net.add_link(a.id(), b.id(), cfg);

  int corrupted = 0, clean = 0;
  b.bind(netsim::IpProto::kUdp, 5, [&](const netsim::Datagram& dg) {
    (dg.corrupted ? corrupted : clean)++;
  });
  for (int i = 0; i < 10; ++i) a.send(make_dg(b.id(), 5, 100, i));
  sim.run();

  EXPECT_EQ(corrupted, 10);  // marked, never dropped: receiver decides
  EXPECT_EQ(clean, 0);
  EXPECT_EQ(net.link(a.id(), b.id())->stats().corrupted, 10u);
}

TEST_F(ChaosNetsimTest, ReorderJitterLetsLaterDatagramsOvertake) {
  netsim::Network net(sim, /*seed=*/7);
  auto& a = net.add_host();
  auto& b = net.add_host();
  netsim::LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e9;
  cfg.reorder_rate = 0.5;
  cfg.reorder_jitter = Duration::millis(20);
  net.add_link(a.id(), b.id(), cfg);

  std::vector<int> order;
  b.bind(netsim::IpProto::kUdp, 5, [&](const netsim::Datagram& dg) {
    order.push_back(static_cast<const TagBody&>(*dg.body).value);
  });
  for (int i = 0; i < 50; ++i) a.send(make_dg(b.id(), 5, 100, i));
  sim.run();

  ASSERT_EQ(order.size(), 50u);  // jitter delays, never drops
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
  EXPECT_GT(net.link(a.id(), b.id())->stats().reordered, 0u);
}

TEST_F(ChaosNetsimTest, LinkFlapDropsOfferedAndQueuedThenRecovers) {
  netsim::Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  netsim::LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e5;  // slow: sends queue up
  net.add_link(a.id(), b.id(), cfg);
  auto* link = net.link(a.id(), b.id());

  int delivered = 0;
  b.bind(netsim::IpProto::kUdp, 5, [&](const netsim::Datagram&) { ++delivered; });

  for (int i = 0; i < 5; ++i) a.send(make_dg(b.id(), 5, 1000, i));
  link->set_up(false);  // queued datagrams die with the cable
  EXPECT_FALSE(link->is_up());
  a.send(make_dg(b.id(), 5, 1000, 99));  // offered while down
  sim.run();
  // The datagram being serialised when the cable died was already on the
  // wire and still lands; the four queued behind it and the one offered
  // while down are lost.
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link->stats().drops_link_down, 5u);

  link->set_up(true);
  a.send(make_dg(b.id(), 5, 1000, 100));
  sim.run();
  EXPECT_EQ(delivered, 2);
}

TEST_F(ChaosNetsimTest, PartitionBlocksCrossGroupOnly) {
  netsim::Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  auto& c = net.add_host();  // not named in any group
  netsim::LinkConfig cfg;
  net.add_duplex_link(a.id(), b.id(), cfg);
  net.add_duplex_link(a.id(), c.id(), cfg);

  int b_got = 0, c_got = 0;
  b.bind(netsim::IpProto::kUdp, 5, [&](const netsim::Datagram&) { ++b_got; });
  c.bind(netsim::IpProto::kUdp, 5, [&](const netsim::Datagram&) { ++c_got; });

  net.partition({{a.id()}, {b.id()}});
  EXPECT_TRUE(net.partitioned(a.id(), b.id()));
  EXPECT_FALSE(net.partitioned(a.id(), c.id()));
  a.send(make_dg(b.id(), 5, 100));
  a.send(make_dg(c.id(), 5, 100));
  sim.run();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(c_got, 1);
  EXPECT_EQ(net.partition_drops(), 1u);

  net.heal();
  a.send(make_dg(b.id(), 5, 100));
  sim.run();
  EXPECT_EQ(b_got, 1);
}

TEST_F(ChaosNetsimTest, ScheduleAppliesScriptedEventsInOrder) {
  netsim::Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.add_duplex_link(a.id(), b.id(), netsim::LinkConfig{});

  netsim::ChaosSchedule chaos(net);
  chaos.loss_at(Duration::millis(10), a.id(), b.id(), 0.25)
      .partition_at(Duration::millis(20), {{a.id()}, {b.id()}})
      .heal_at(Duration::millis(30))
      .flap_at(Duration::millis(40), a.id(), b.id(), Duration::millis(5))
      .corrupt_at(Duration::millis(50), a.id(), b.id(), 0.1)
      .duplicate_at(Duration::millis(60), a.id(), b.id(), 0.1)
      .reorder_at(Duration::millis(70), a.id(), b.id(), 0.2, Duration::millis(2))
      .delay_all_at(Duration::millis(80), Duration::millis(9));
  chaos.arm();
  EXPECT_TRUE(chaos.armed());
  sim.run();

  const auto& st = chaos.stats();
  EXPECT_EQ(st.partitions, 1u);
  EXPECT_EQ(st.heals, 1u);
  EXPECT_EQ(st.link_flaps, 2u);   // down + up
  EXPECT_EQ(st.rate_changes, 4u); // loss, corrupt, duplicate, reorder
  EXPECT_EQ(st.delay_changes, 1u);
  EXPECT_EQ(st.total(), 9u);
  ASSERT_EQ(chaos.trace().size(), 9u);
  // Events landed in time order and left the knobs set.
  EXPECT_TRUE(std::is_sorted(
      chaos.trace().begin(), chaos.trace().end(),
      [](const auto& x, const auto& y) { return x.at < y.at; }));
  auto* link = net.link(a.id(), b.id());
  EXPECT_DOUBLE_EQ(link->config().random_loss_rate, 0.25);
  EXPECT_DOUBLE_EQ(link->config().corrupt_rate, 0.1);
  EXPECT_DOUBLE_EQ(link->config().duplicate_rate, 0.1);
  EXPECT_DOUBLE_EQ(link->config().reorder_rate, 0.2);
  EXPECT_EQ(link->config().propagation_delay.as_nanos(),
            Duration::millis(9).as_nanos());
  EXPECT_TRUE(link->is_up());
  EXPECT_FALSE(net.partitioned(a.id(), b.id()));
}

TEST_F(ChaosNetsimTest, RandomFlapScheduleIsSeedDeterministic) {
  auto build_trace = [](std::uint64_t seed) {
    sim::Simulator local_sim;
    netsim::Network net(local_sim);
    auto& a = net.add_host();
    auto& b = net.add_host();
    auto& c = net.add_host();
    net.add_duplex_link(a.id(), b.id(), netsim::LinkConfig{});
    net.add_duplex_link(b.id(), c.id(), netsim::LinkConfig{});
    netsim::ChaosSchedule chaos(net, seed);
    chaos.random_flaps(8, Duration::millis(0), Duration::seconds(1.0),
                       Duration::millis(50));
    chaos.arm();
    local_sim.run();
    return chaos.trace_string();
  };
  const auto t1 = build_trace(1234);
  const auto t2 = build_trace(1234);
  const auto t3 = build_trace(4321);
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, t3);
  EXPECT_FALSE(t1.empty());
}

TEST_F(ChaosNetsimTest, RandomFlapTraceIsPinned) {
  // Pins the pair list random_flaps draws from: distinct unordered pairs in
  // the order a (src, dst)-ascending link walk first meets them. The mesh
  // has one-way links (3 -> 1, 4 -> 0), whose pairs are first met at the
  // reverse position, a self-loop, and a link replaced by a second add_link.
  netsim::Network net(sim);
  for (int i = 0; i < 5; ++i) net.add_host();
  netsim::LinkConfig cfg;
  net.add_link(4, 0, cfg);
  net.add_duplex_link(2, 4, cfg);
  net.add_link(3, 1, cfg);
  net.add_link(2, 2, cfg);
  net.add_duplex_link(0, 1, cfg);
  cfg.propagation_delay = Duration::millis(3);
  net.add_link(4, 2, cfg);  // replaces the reverse half of 2 <-> 4

  netsim::ChaosSchedule chaos(net, 77);
  chaos.random_flaps(12, Duration::millis(0), Duration::millis(100),
                     Duration::millis(5));
  chaos.arm();
  sim.run();
  EXPECT_EQ(chaos.trace_string(),
            "7976799 down(2<->2)\n"
            "12976799 up(2<->2)\n"
            "26420589 down(0<->1)\n"
            "26644525 down(1<->3)\n"
            "31420589 up(0<->1)\n"
            "31644525 up(1<->3)\n"
            "36148520 down(0<->4)\n"
            "38067991 down(1<->3)\n"
            "41148520 up(0<->4)\n"
            "42013651 down(0<->1)\n"
            "43067991 up(1<->3)\n"
            "45781394 down(2<->4)\n"
            "47013651 up(0<->1)\n"
            "50781394 up(2<->4)\n"
            "82315219 down(0<->4)\n"
            "86041876 down(2<->4)\n"
            "87315219 up(0<->4)\n"
            "89186887 down(0<->1)\n"
            "89780004 down(0<->4)\n"
            "91041876 up(2<->4)\n"
            "93236547 down(1<->3)\n"
            "94186887 up(0<->1)\n"
            "94780004 up(0<->4)\n"
            "98236547 up(1<->3)\n");
}

TEST_F(ChaosNetsimTest, HostAddedAfterPartitionKeepsFullConnectivity) {
  netsim::Network net(sim);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.partition({{a.id()}, {b.id()}});
  auto& late = net.add_host();  // joins while the partition is active
  netsim::LinkConfig cfg;
  net.add_duplex_link(a.id(), b.id(), cfg);
  net.add_duplex_link(a.id(), late.id(), cfg);
  net.add_duplex_link(b.id(), late.id(), cfg);

  int got = 0;
  for (auto* h : {&a, &b, &late}) {
    h->bind(netsim::IpProto::kUdp, 5, [&](const netsim::Datagram&) { ++got; });
  }
  EXPECT_FALSE(net.partitioned(late.id(), a.id()));
  EXPECT_FALSE(net.partitioned(b.id(), late.id()));
  EXPECT_TRUE(net.partitioned(b.id(), a.id()));
  late.send(make_dg(a.id(), 5, 100));
  late.send(make_dg(b.id(), 5, 100));
  a.send(make_dg(late.id(), 5, 100));
  b.send(make_dg(late.id(), 5, 100));
  a.send(make_dg(b.id(), 5, 100));
  sim.run();
  EXPECT_EQ(got, 4);
  EXPECT_EQ(net.partition_drops(), 1u);

  // heal() restores every route.
  net.heal();
  got = 0;
  for (auto* from : {&a, &b, &late}) {
    for (auto* to : {&a, &b, &late}) {
      if (from != to) from->send(make_dg(to->id(), 5, 100));
    }
  }
  sim.run();
  EXPECT_EQ(got, 6);
  EXPECT_EQ(net.partition_drops(), 1u);
  EXPECT_EQ(net.routing_drops(), 0u);
}

TEST_F(ChaosNetsimTest, PartitionNamingAHostNotYetAddedAppliesWhenItJoins) {
  // A group may name an id beyond the current hosts. It is checked like any
  // other id: sends towards it are partition drops, not routing drops, and a
  // host that later takes that id is in the named group.
  netsim::Network net(sim);
  auto& a = net.add_host();
  net.partition({{a.id()}, {3}});
  EXPECT_TRUE(net.partitioned(a.id(), 3));
  EXPECT_FALSE(net.partitioned(a.id(), 2));
  a.send(make_dg(3, 5, 100));
  a.send(make_dg(2, 5, 100));
  sim.run();
  EXPECT_EQ(net.partition_drops(), 1u);
  EXPECT_EQ(net.routing_drops(), 1u);

  net.add_host();
  net.add_host();
  auto& named = net.add_host();
  ASSERT_EQ(named.id(), 3u);
  EXPECT_TRUE(net.partitioned(named.id(), a.id()));
  EXPECT_FALSE(net.partitioned(named.id(), 1));
  net.heal();
  EXPECT_FALSE(net.partitioned(named.id(), a.id()));
}

// --- Part B: full messaging stack under chaos ------------------------------

/// Minimal consumer endpoint: records received ping sequence numbers.
class Endpoint final : public kompics::ComponentDefinition {
 public:
  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe<PingMsg>(*net_,
                       [this](const PingMsg& p) { received.push_back(p.seq()); });
  }
  kompics::PortInstance& network() { return *net_; }
  void send(messaging::MsgPtr m) { trigger(std::move(m), *net_); }
  std::vector<std::uint64_t> received;

 private:
  kompics::PortInstance* net_ = nullptr;
};

struct ReliableStack {
  std::unique_ptr<apps::TwoNodeExperiment> exp;
  messaging::ReliableChannel* rc_a = nullptr;
  messaging::ReliableChannel* rc_b = nullptr;
  Endpoint* ep_a = nullptr;
  Endpoint* ep_b = nullptr;

  explicit ReliableStack(std::uint64_t seed = 42) {
    apps::ExperimentConfig cfg;
    cfg.setup = netsim::Setup::kEuVpc;
    cfg.seed = seed;
    exp = std::make_unique<apps::TwoNodeExperiment>(cfg);
    messaging::register_reliable_serializers(*exp->registry());

    messaging::ReliableConfig ra{exp->addr_a(), Duration::millis(200), 50,
                                 Transport::kUdp};
    messaging::ReliableConfig rb{exp->addr_b(), Duration::millis(200), 50,
                                 Transport::kUdp};
    rc_a = &exp->system().create<messaging::ReliableChannel>("rc_a", ra,
                                                             exp->registry());
    rc_b = &exp->system().create<messaging::ReliableChannel>("rc_b", rb,
                                                             exp->registry());
    exp->connect_a(rc_a->network_port());
    exp->connect_b(rc_b->network_port());
    ep_a = &exp->system().create<Endpoint>("ep_a");
    ep_b = &exp->system().create<Endpoint>("ep_b");
    exp->system().connect(rc_a->consumer_port(), ep_a->network());
    exp->system().connect(rc_b->consumer_port(), ep_b->network());
    exp->start();
  }

  messaging::MsgPtr ping(std::uint64_t seq) {
    messaging::BasicHeader h{exp->addr_a(), exp->addr_b(), Transport::kUdp};
    return kompics::make_event<PingMsg>(h, seq, 0);
  }
};

TEST(ChaosStackTest, ExactlyOnceDeliveryThroughPartitionAndFlaps) {
  ReliableStack s;
  const auto host_a = s.exp->addr_a().host;
  const auto host_b = s.exp->addr_b().host;

  // Faults: a 3 s partition, a later 1 s link flap, and duplication +
  // reordering throughout the middle stretch.
  netsim::ChaosSchedule chaos(s.exp->network());
  chaos.duplicate_at(Duration::millis(500), host_a, host_b, 0.1)
      .reorder_at(Duration::millis(500), host_a, host_b, 0.2,
                  Duration::millis(10))
      .partition_at(Duration::seconds(2.0), {{host_a}, {host_b}})
      .heal_at(Duration::seconds(5.0))
      .flap_at(Duration::seconds(7.0), host_a, host_b, Duration::seconds(1.0));
  chaos.arm();

  // Sends are spread across the timeline so some fall inside each fault
  // window: before the partition, during it, and across the flap.
  const std::uint64_t n = 40;
  for (std::uint64_t i = 1; i <= n; ++i) {
    s.ep_a->send(s.ping(i));
    s.exp->run_for(Duration::millis(250));
  }
  s.exp->run_for(Duration::seconds(30.0));

  // Exactly-once: every ping arrives, none twice, despite drops + dupes.
  ASSERT_EQ(s.ep_b->received.size(), n);
  std::set<std::uint64_t> unique(s.ep_b->received.begin(),
                                 s.ep_b->received.end());
  EXPECT_EQ(unique.size(), n);
  EXPECT_EQ(s.rc_a->reliable_stats().gave_up, 0u);
  EXPECT_GT(s.rc_a->reliable_stats().retransmitted, 0u);
  EXPECT_GT(s.exp->network().partition_drops(), 0u);
  EXPECT_EQ(chaos.stats().total(), 6u);
}

TEST(ChaosStackTest, CorruptionPoisonsFramingAndSessionRecovers) {
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  // Small transport buffer keeps frames queued in the session during the
  // corruption burst, exercising reconnect-with-queued-frames.
  cfg.net.tcp.send_buffer_bytes = 256 * 1024;
  apps::TwoNodeExperiment exp(cfg);

  apps::DataSourceConfig scfg;
  scfg.self = exp.addr_a();
  scfg.dst = exp.addr_b();
  scfg.total_bytes = 0;  // stream
  scfg.protocol = Transport::kTcp;
  auto& source = exp.system().create<apps::DataSource>("source", scfg);
  apps::DataSinkConfig kcfg;
  kcfg.self = exp.addr_b();
  kcfg.verify_payload = true;
  auto& sink = exp.system().create<apps::DataSink>("sink", kcfg);
  exp.connect_a(source.network());
  exp.connect_b(sink.network());
  exp.start();

  const auto host_a = exp.addr_a().host;
  const auto host_b = exp.addr_b().host;
  // ~45k segments/s flow at VPC speed, so even a 1-in-1000 bit-error rate
  // over one second tears the connection down dozens of times.
  netsim::ChaosSchedule chaos(exp.network());
  chaos.corrupt_at(Duration::seconds(1.0), host_a, host_b, 0.001)
      .corrupt_at(Duration::seconds(2.0), host_a, host_b, 0.0);
  chaos.arm();

  exp.run_for(Duration::seconds(3.0));
  const auto bytes_after_burst = sink.bytes_received();
  exp.run_for(Duration::seconds(2.0));

  // The burst flipped payload bits that escaped the transport checksum; the
  // framing CRC must have caught them (no corrupt chunk ever reaches the
  // app) and the sender must have re-established the torn-down session.
  EXPECT_GT(exp.network_b().net_stats().frames_corrupt, 0u);
  EXPECT_GT(exp.network_a().net_stats().session_reconnects, 0u);
  EXPECT_EQ(sink.corrupt_chunks(), 0u);
  EXPECT_GT(sink.bytes_received(), bytes_after_burst);  // stream resumed
}

/// Runs a seeded chaos scenario over the reliable stack and flattens every
/// observable into one fingerprint string.
std::string chaos_fingerprint(std::uint64_t seed) {
  ReliableStack s(seed);
  const auto host_a = s.exp->addr_a().host;
  const auto host_b = s.exp->addr_b().host;

  netsim::ChaosSchedule chaos(s.exp->network(), seed);
  chaos.loss_at(Duration::millis(300), host_a, host_b, 0.1)
      .reorder_at(Duration::millis(400), host_a, host_b, 0.3,
                  Duration::millis(5))
      .duplicate_at(Duration::millis(500), host_a, host_b, 0.1)
      .corrupt_at(Duration::millis(600), host_a, host_b, 0.02)
      .random_flaps(4, Duration::seconds(1.0), Duration::seconds(4.0),
                    Duration::millis(200));
  chaos.arm();

  for (std::uint64_t i = 1; i <= 30; ++i) {
    s.ep_a->send(s.ping(i));
    s.exp->run_for(Duration::millis(150));
  }
  s.exp->run_for(Duration::seconds(15.0));

  std::ostringstream os;
  os << "trace:\n" << chaos.trace_string();
  for (auto [x, y] : {std::pair{host_a, host_b}, std::pair{host_b, host_a}}) {
    const auto& ls = s.exp->network().link(x, y)->stats();
    os << "link " << x << "->" << y << ": " << ls.datagrams_sent << " "
       << ls.datagrams_delivered << " " << ls.drops_queue_full << " "
       << ls.drops_random << " " << ls.drops_link_down << " " << ls.duplicated
       << " " << ls.corrupted << " " << ls.reordered << " "
       << ls.bytes_delivered << "\n";
  }
  os << "received:";
  for (auto seq : s.ep_b->received) os << " " << seq;
  os << "\nrexmit: " << s.rc_a->reliable_stats().retransmitted
     << " acked: " << s.rc_a->reliable_stats().acked
     << " partition_drops: " << s.exp->network().partition_drops() << "\n";
  return os.str();
}

TEST(ChaosStackTest, SeededScenarioReplaysBitIdentically) {
  const auto f1 = chaos_fingerprint(1717);
  const auto f2 = chaos_fingerprint(1717);
  EXPECT_EQ(f1, f2);
  // And the seed actually matters (the scenario is genuinely random).
  const auto f3 = chaos_fingerprint(7171);
  EXPECT_NE(f1, f3);
}

TEST(ChaosStackTest, TdLearnerReconvergesAfterChaosDelayShift) {
  // Fast ctest version of bench/ablation_adaptivity: one continuous DATA
  // stream while a ChaosSchedule jumps the link from VPC-class RTT (3 ms,
  // TCP optimal) to intercontinental (320 ms, UDT optimal) mid-run. The
  // non-stationarity detector must re-open exploration and migrate the
  // target ratio toward UDT.
  apps::ExperimentConfig cfg;
  cfg.setup = netsim::Setup::kEuVpc;
  cfg.use_data_network = true;
  cfg.data.prp_kind = adaptive::PrpKind::kTdQuadApprox;
  cfg.data.psp_kind = adaptive::PspKind::kPattern;
  // The bench's validated cadence: shorter episodes drown the throughput
  // reward in noise once the RTT exceeds a third of the episode.
  cfg.data.episode_length = Duration::seconds(1.0);
  cfg.net.udt.send_buffer_bytes = 100 * 1024 * 1024;
  cfg.net.udt.recv_buffer_bytes = 100 * 1024 * 1024;
  apps::TwoNodeExperiment exp(cfg);

  apps::DataSourceConfig scfg;
  scfg.self = exp.addr_a();
  scfg.dst = exp.addr_b();
  scfg.total_bytes = 0;  // stream
  scfg.protocol = Transport::kData;
  auto& source = exp.system().create<apps::DataSource>("source", scfg);
  apps::DataSinkConfig kcfg;
  kcfg.self = exp.addr_b();
  auto& sink = exp.system().create<apps::DataSink>("sink", kcfg);
  exp.connect_a(source.network());
  exp.connect_b(sink.network());
  exp.start();

  // Phase 1 must be long enough for ε to anneal and the learner to pin to
  // TCP — the change detector compares against the converged watermark.
  netsim::ChaosSchedule chaos(exp.network());
  chaos.delay_all_at(Duration::seconds(40.0), Duration::micros(160000));
  chaos.arm();

  exp.run_for(Duration::seconds(40.0));
  auto flows = exp.interceptor()->flows();
  ASSERT_EQ(flows.size(), 1u);
  const double target_before = flows[0].target_prob_udt;
  const double eps_before = flows[0].epsilon;
  EXPECT_LE(target_before, 0.4);  // VPC phase: pinned TCP-heavy

  // The RTT jump collapses the TCP reward; within a few episodes the
  // non-stationarity detector must re-open exploration.
  exp.run_for(Duration::seconds(8.0));
  flows = exp.interceptor()->flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_GE(flows[0].epsilon, 0.3);
  EXPECT_GT(flows[0].epsilon, eps_before);

  // The exact target trajectory is chaotic, so judge the re-converged
  // policy by its time average: across the tail of the run the UDT share
  // must have clearly migrated up from the TCP pin.
  exp.run_for(Duration::seconds(22.0));
  double target_sum = 0.0;
  int samples = 0;
  sink.take_interval_bytes();
  for (int i = 0; i < 30; ++i) {
    exp.run_for(Duration::seconds(1.0));
    flows = exp.interceptor()->flows();
    ASSERT_EQ(flows.size(), 1u);
    target_sum += flows[0].target_prob_udt;
    ++samples;
  }
  const double target_mean = target_sum / samples;
  EXPECT_GE(target_mean, target_before + 0.1);
  EXPECT_GE(target_mean, 0.2);
  // Throughput recovered from the post-shift collapse (~1 MB/s) as traffic
  // moved onto UDT (policed at 10 MB/s, so well above 1.5 MB/s average).
  const double tail_mbps =
      static_cast<double>(sink.take_interval_bytes()) / 30e6;
  EXPECT_GE(tail_mbps, 1.5);
}

TEST(ChaosStackTest, CombinedFaultsPingpongPlusTransfer) {
  // The acceptance scenario: reliable pings and a bulk TCP transfer share
  // the path while a schedule combining five fault types (partition, flap,
  // reordering, duplication, loss) runs. The reliable channel must still be
  // exactly-once; the transfer must make progress and deliver clean bytes.
  ReliableStack s;
  auto& exp = *s.exp;
  const auto host_a = exp.addr_a().host;
  const auto host_b = exp.addr_b().host;

  apps::DataSourceConfig scfg;
  scfg.self = exp.addr_a();
  scfg.dst = exp.addr_b();
  scfg.total_bytes = 0;  // stream
  scfg.protocol = Transport::kTcp;
  auto& source = exp.system().create<apps::DataSource>("source", scfg);
  apps::DataSinkConfig kcfg;
  kcfg.self = exp.addr_b();
  kcfg.verify_payload = true;
  auto& sink = exp.system().create<apps::DataSink>("sink", kcfg);
  exp.connect_a(source.network());
  exp.connect_b(sink.network());
  exp.start();

  netsim::ChaosSchedule chaos(exp.network());
  chaos.loss_at(Duration::seconds(1.0), host_a, host_b, 0.02)
      .reorder_at(Duration::seconds(1.0), host_a, host_b, 0.1,
                  Duration::millis(5))
      .duplicate_at(Duration::seconds(1.0), host_a, host_b, 0.05)
      .partition_at(Duration::seconds(4.0), {{host_a}, {host_b}})
      .heal_at(Duration::seconds(6.0))
      .flap_at(Duration::seconds(9.0), host_a, host_b, Duration::millis(500));
  chaos.arm();

  const std::uint64_t n = 30;
  for (std::uint64_t i = 1; i <= n; ++i) {
    s.ep_a->send(s.ping(i));
    exp.run_for(Duration::millis(400));
  }
  exp.run_for(Duration::seconds(30.0));

  ASSERT_EQ(s.ep_b->received.size(), n);
  std::set<std::uint64_t> unique(s.ep_b->received.begin(),
                                 s.ep_b->received.end());
  EXPECT_EQ(unique.size(), n);
  EXPECT_EQ(s.rc_a->reliable_stats().gave_up, 0u);
  EXPECT_GT(sink.bytes_received(), 10u * 1024 * 1024);
  EXPECT_EQ(sink.corrupt_chunks(), 0u);
  // All five fault categories actually fired.
  EXPECT_EQ(chaos.stats().partitions, 1u);
  EXPECT_EQ(chaos.stats().heals, 1u);
  EXPECT_EQ(chaos.stats().link_flaps, 2u);
  EXPECT_EQ(chaos.stats().rate_changes, 3u);
}

}  // namespace
}  // namespace kmsg
