#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <thread>
#include <vector>

#include "apps/experiment.hpp"
#include "apps/filetransfer.hpp"
#include "apps/gossip.hpp"
#include "apps/messages.hpp"
#include "kompics/timer.hpp"
#include "netsim/chaos.hpp"
#include "netsim/topology.hpp"
#include "sim/sharded.hpp"

namespace perfbench {
namespace {

using kmsg::Duration;
using kmsg::TimePoint;
using kmsg::apps::TelemetryMsg;
using kmsg::messaging::Address;
using kmsg::messaging::BasicHeader;
using kmsg::messaging::Transport;
namespace apps = kmsg::apps;
namespace kompics = kmsg::kompics;
namespace messaging = kmsg::messaging;
namespace netsim = kmsg::netsim;

double to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Seed tags: one per random source the public configs expose.
enum SeedTag : std::uint64_t {
  kTagWorld = 1,   // ExperimentConfig::seed / Network seed (link fault draws)
  kTagData,        // DataNetworkConfig::seed (PSP/PRP learner)
  kTagJitter,      // NetworkConfig::jitter_seed
  kTagApp,         // the workload's own inputs
  kTagTopology,    // make_star_of_regions
  kTagChaos,       // ChaosSchedule
  kTagGossip,      // GossipOverlay
};

/// A two-host world with every exposed seed derived from `seed`.
apps::ExperimentConfig two_node_config(netsim::Setup setup, std::uint64_t seed,
                                       bool data_network) {
  apps::ExperimentConfig cfg;
  cfg.setup = setup;
  cfg.seed = derive_seed(seed, kTagWorld);
  cfg.use_data_network = data_network;
  cfg.data.seed = derive_seed(seed, kTagData);
  cfg.net.jitter_seed = derive_seed(seed, kTagJitter);
  // The paper's UDT tuning, as in the Fig. 8 and Fig. 9 benches.
  cfg.net.udt.send_buffer_bytes = 100 * 1024 * 1024;
  cfg.net.udt.recv_buffer_bytes = 100 * 1024 * 1024;
  return cfg;
}

/// Observers on both nodes' NetworkComponent ports (traced runs only).
struct Observers {
  Observer* a = nullptr;
  Observer* b = nullptr;

  Observers(apps::TwoNodeExperiment& exp, bool on) {
    if (!on) return;
    a = &exp.system().create<Observer>("observer-a");
    b = &exp.system().create<Observer>("observer-b");
    exp.system().connect(exp.network_a().network_port(), a->network());
    exp.system().connect(exp.network_b().network_port(), b->network());
  }
  void collect(RepResult& r) const {
    if (a == nullptr) return;
    add_observer(r, *a);
    add_observer(r, *b);
    r.traced["apps.chunk_attempts"] += static_cast<double>(a->notifies());
  }
};

/// Stack counts shared by the two-host workloads.
void collect_two_node(RepResult& r, apps::TwoNodeExperiment& exp,
                      std::uint64_t events) {
  add_network_stats(r, exp.network_a().net_stats());
  add_network_stats(r, exp.network_b().net_stats());
  add_link_stats(r, exp.network());
  r.counts["sim.events"] += static_cast<double>(events);
  if (auto* ic = exp.interceptor()) {
    for (const auto& f : ic->flows()) {
      r.counts["adaptive.flows"] += 1;
      r.counts["adaptive.released_tcp"] += static_cast<double>(f.released_tcp);
      r.counts["adaptive.released_udt"] += static_cast<double>(f.released_udt);
      r.counts["adaptive.episodes"] += static_cast<double>(f.episodes);
      r.counts["rl.epsilon_final"] += f.epsilon;
      r.counts["rl.target_prob_udt_final"] += f.target_prob_udt;
    }
  }
}

/// Runs the world while `more()` holds and the deadline is ahead, testing
/// `more()` every `check` of simulated time. Each simulated second is one
/// sim.run span. Returns the events executed.
template <typename More>
std::uint64_t run_slices(kmsg::sim::Simulator& sim, Tracer& tr, TimePoint deadline,
                         Duration check, More more) {
  std::uint64_t events = 0;
  set_alloc_counting(tr.on());
  while (more() && sim.now() < deadline) {
    ScopedSpan span(tr, "sim.run");
    const TimePoint second_end =
        std::min(deadline, TimePoint::zero() + Duration::seconds(1.0) *
                                                   (sim.now().as_nanos() / 1'000'000'000 + 1));
    while (more() && sim.now() < second_end) {
      events += sim.run_until(std::min(second_end, sim.now() + check));
    }
  }
  set_alloc_counting(false);
  return events;
}

/// Sends refused or failed over sends attempted, over every NetworkComponent.
double fail_ratio(RepResult& r) {
  const double dropped = r.counts["messaging.msgs_dropped"];
  return ratio(dropped, r.counts["messaging.msgs_sent"] + dropped);
}

// --- bulk: the Fig. 9 path ---------------------------------------------------

constexpr std::uint64_t kBulkBytes = 64 * 1024 * 1024;
constexpr std::size_t kChunkBytes = 65000;
constexpr double kBulkDeadlineS = 600.0;

void bulk_leg(RepResult& r, Tracer& tr, std::uint64_t seed, Transport proto,
              const char* leg) {
  const std::int64_t t0 = cpu_ns();
  std::optional<apps::TwoNodeExperiment> exp;
  apps::DataSource* source = nullptr;
  apps::DataSink* sink = nullptr;
  std::optional<Observers> obs;
  {
    ScopedSpan span(tr, "kompics.setup");
    exp.emplace(two_node_config(netsim::Setup::kEuVpc, seed,
                                proto == Transport::kData));
    apps::DataSourceConfig scfg;
    scfg.self = exp->addr_a();
    scfg.dst = exp->addr_b();
    scfg.total_bytes = kBulkBytes;
    scfg.chunk_bytes = kChunkBytes;
    scfg.protocol = proto;
    source = &exp->system().create<apps::DataSource>("source", scfg);
    apps::DataSinkConfig kcfg;
    kcfg.self = exp->addr_b();
    kcfg.verify_payload = true;
    sink = &exp->system().create<apps::DataSink>("sink", kcfg);
    exp->connect_a(source->network());
    exp->connect_b(sink->network());
    obs.emplace(*exp, tr.on());
    exp->start();
  }
  const std::int64_t t1 = cpu_ns();
  r.setup_s += to_s(t1 - t0);

  bool done = false;
  std::uint64_t confirmed = 0;
  Duration took = Duration::zero();
  source->set_on_complete([&](Duration d, std::uint64_t total) {
    done = true;
    confirmed = total;
    took = d;
  });
  const std::uint64_t events = run_slices(
      exp->simulator(), tr, TimePoint::zero() + Duration::seconds(kBulkDeadlineS),
      Duration::millis(10), [&] { return !done; });
  r.run_s += to_s(cpu_ns() - t1);
  r.sim_s += exp->simulator().now().as_seconds();
  r.msgs += sink->chunks_received();
  r.counts["apps.chunks_delivered"] += static_cast<double>(sink->chunks_received());

  const std::string name = std::string("bulk.") + leg;
  const std::size_t failures_before = r.gate_failures.size();
  r.gate(done, name + ": transfer did not complete");
  r.gate(confirmed == kBulkBytes, name + ": receipt byte count differs");
  r.gate(sink->bytes_received() == kBulkBytes, name + ": sink byte count differs");
  r.gate(sink->corrupt_chunks() == 0, name + ": corrupt chunks");
  ++r.attempted;
  if (r.gate_failures.size() > failures_before) ++r.failed;

  collect_two_node(r, *exp, events);
  obs->collect(r);
  const auto& a = exp->network_a().net_stats();
  const auto& b = exp->network_b().net_stats();
  const auto dropped = static_cast<double>(a.msgs_dropped + b.msgs_dropped);
  r.outcome(std::string("goodput_") + leg + "_MBps", "MB/s",
            done ? static_cast<double>(kBulkBytes) / took.as_seconds() / 1e6 : 0.0);
  r.outcome(std::string("fail_ratio_") + leg, "ratio",
            ratio(dropped, static_cast<double>(a.msgs_sent + b.msgs_sent) + dropped));
}

RepResult run_bulk(std::uint64_t seed, Tracer& tr) {
  RepResult r;
  bulk_leg(r, tr, derive_seed(seed, 101), Transport::kTcp, "tcp");
  bulk_leg(r, tr, derive_seed(seed, 102), Transport::kUdt, "udt");
  bulk_leg(r, tr, derive_seed(seed, 103), Transport::kData, "data");
  r.outcome("fail_ratio", "ratio", fail_ratio(r));
  r.traced["apps.payload_bytes_generated"] =
      r.traced["apps.chunk_attempts"] * static_cast<double>(kChunkBytes);
  return r;
}

// --- rpc: many small request/reply messages ----------------------------------

constexpr int kCallers = 64;
constexpr double kRpcHorizonS = 4.0;
constexpr double kDrainS = 30.0;
using Readings = std::array<std::uint64_t, TelemetryMsg::kReadings>;

/// Echoes every TelemetryMsg back to its sender over TCP.
class RpcServer final : public kompics::ComponentDefinition {
 public:
  RpcServer(Address self, Tracer& tr) : self_(self), tr_(tr) {}
  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe<TelemetryMsg>(*net_, [this](const TelemetryMsg& m) {
      HandlerTimer ht(tr_, "apps.rpc_server", rpc_id_of(m));
      BasicHeader h{self_, m.header().source(), Transport::kTcp};
      trigger(kompics::make_event<TelemetryMsg>(h, m.device_id(), m.seq(),
                                                m.flags(), m.readings()),
              *net_);
    });
  }
  kompics::PortInstance& network() { return *net_; }

  /// Shared message id of an RPC: rounds of kCallers, 1-based.
  static std::uint64_t rpc_id_of(const TelemetryMsg& m) {
    const int caller = caller_of(m.device_id());
    return caller < 0 ? 0
                      : (m.seq() - 1) * kCallers + static_cast<std::uint64_t>(caller) + 1;
  }
  /// "dev-<i>" -> i, or -1 for anything else.
  static int caller_of(const std::string& device) {
    if (device.size() < 5 || device.compare(0, 4, "dev-") != 0) return -1;
    int i = 0;
    for (std::size_t k = 4; k < device.size(); ++k) {
      if (device[k] < '0' || device[k] > '9') return -1;
      i = i * 10 + (device[k] - '0');
      if (i >= kCallers) return -1;
    }
    return i;
  }

 private:
  Address self_;
  Tracer& tr_;
  kompics::PortInstance* net_ = nullptr;
};

/// kCallers closed-loop callers in one component: each sends its next
/// request only once the previous reply came back and matched.
class RpcClient final : public kompics::ComponentDefinition {
 public:
  RpcClient(Address self, Address dst, std::uint64_t seed, TimePoint horizon,
            Tracer& tr)
      : self_(self), dst_(dst), horizon_(horizon), tr_(tr), rng_(seed) {
    for (auto& c : callers_) {
      for (auto& x : c.readings) x = reading(rng_);
    }
  }

  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe<kompics::Start>(control(), [this](const kompics::Start&) {
      for (int i = 0; i < kCallers; ++i) send(i);
    });
    subscribe<TelemetryMsg>(*net_, [this](const TelemetryMsg& m) { on_reply(m); });
  }
  kompics::PortInstance& network() { return *net_; }

  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t completed_in_horizon = 0;
  std::uint64_t mismatched = 0;
  kmsg::SampleSet rtt_ms;
  std::uint64_t outstanding() const {
    return static_cast<std::uint64_t>(std::count_if(
        callers_.begin(), callers_.end(), [](const Caller& c) { return c.waiting; }));
  }

 private:
  struct Caller {
    std::uint64_t seq = 0;
    std::uint8_t flags = 0;
    Readings readings{};
    TimePoint sent_at;
    bool waiting = false;
  };

  /// Log-uniform magnitudes, so the varint-coded deltas vary in size.
  static std::uint64_t reading(kmsg::Rng& rng) {
    return rng.next_below(std::uint64_t{1} << (1 + rng.next_below(40)));
  }

  void send(int i) {
    Caller& c = callers_[static_cast<std::size_t>(i)];
    ++c.seq;
    // One reading moves per request, as a sensor report would.
    c.readings[c.seq % c.readings.size()] = reading(rng_);
    c.flags = static_cast<std::uint8_t>(c.seq & 0xff);
    c.sent_at = clock().now();
    c.waiting = true;
    ++issued;
    BasicHeader h{self_, dst_, Transport::kTcp};
    trigger(kompics::make_event<TelemetryMsg>(h, "dev-" + std::to_string(i),
                                              c.seq, c.flags, c.readings),
            *net_);
  }

  void on_reply(const TelemetryMsg& m) {
    HandlerTimer ht(tr_, "apps.rpc_client", RpcServer::rpc_id_of(m));
    const int i = RpcServer::caller_of(m.device_id());
    if (i < 0) {
      ++mismatched;
      return;
    }
    Caller& c = callers_[static_cast<std::size_t>(i)];
    if (!c.waiting || m.seq() != c.seq || m.flags() != c.flags ||
        m.readings() != c.readings) {
      ++mismatched;
      return;
    }
    c.waiting = false;
    const TimePoint now = clock().now();
    ++completed;
    if (now <= horizon_) ++completed_in_horizon;
    rtt_ms.add((now - c.sent_at).as_millis());
    if (now < horizon_) send(i);
  }

  Address self_;
  Address dst_;
  TimePoint horizon_;
  Tracer& tr_;
  kmsg::Rng rng_;
  kompics::PortInstance* net_ = nullptr;
  std::array<Caller, kCallers> callers_{};
};

void add_rtt_outcomes(RepResult& r, const kmsg::SampleSet& rtt) {
  r.outcome("rtt_p50_ms", "ms", rtt.median());
  // The 99th percentile needs at least ten samples beyond it.
  if (rtt.count() >= 1000) r.outcome("rtt_p99_ms", "ms", rtt.percentile(99.0));
  r.outcome("rtt_samples", "count", static_cast<double>(rtt.count()));
}

RepResult run_rpc(std::uint64_t seed, Tracer& tr) {
  RepResult r;
  const TimePoint horizon = TimePoint::zero() + Duration::seconds(kRpcHorizonS);
  const std::int64_t t0 = cpu_ns();
  std::optional<apps::TwoNodeExperiment> exp;
  RpcClient* client = nullptr;
  std::optional<Observers> obs;
  {
    ScopedSpan span(tr, "kompics.setup");
    auto cfg = two_node_config(netsim::Setup::kEuVpc, seed, false);
    cfg.net.enable_delta = true;
    cfg.net.enable_coalescing = true;
    exp.emplace(cfg);
    apps::register_app_delta_schemas(*exp->registry());
    client = &exp->system().create<RpcClient>(
        "rpc-client", exp->addr_a(), exp->addr_b(), derive_seed(seed, kTagApp),
        horizon, tr);
    auto& server = exp->system().create<RpcServer>("rpc-server", exp->addr_b(), tr);
    exp->connect_a(client->network());
    exp->connect_b(server.network());
    obs.emplace(*exp, tr.on());
    exp->start();
  }
  const std::int64_t t1 = cpu_ns();
  r.setup_s = to_s(t1 - t0);

  auto& sim = exp->simulator();
  std::uint64_t events = run_slices(sim, tr, horizon, Duration::seconds(1.0),
                                    [] { return true; });
  // Drain the replies still in flight at the horizon.
  events += run_slices(sim, tr, horizon + Duration::seconds(kDrainS),
                       Duration::millis(10),
                       [&] { return client->outstanding() > 0; });
  r.run_s = to_s(cpu_ns() - t1);
  r.sim_s = sim.now().as_seconds();
  r.msgs = client->completed;
  r.attempted = client->issued;
  r.failed = client->mismatched + client->outstanding();
  r.gate(client->mismatched == 0, "rpc: a reply did not echo its request");
  r.gate(client->outstanding() == 0, "rpc: requests unanswered after the drain");
  r.gate(client->completed > 0, "rpc: no RPC completed");

  add_rtt_outcomes(r, client->rtt_ms);
  r.outcome("rpc_per_sim_s", "1/s",
            static_cast<double>(client->completed_in_horizon) / kRpcHorizonS);
  collect_two_node(r, *exp, events);
  obs->collect(r);
  r.outcome("fail_ratio", "ratio", fail_ratio(r));
  return r;
}

// --- ping_under_bulk: one Fig. 8 cell ---------------------------------------

constexpr double kPingHorizonS = 20.0;
constexpr Duration kPingInterval = Duration::millis(10);

/// Open-loop TCP pinger on the simulated clock: ping k is due at
/// k * interval and is timed from its due time.
class PingGen final : public kompics::ComponentDefinition {
 public:
  PingGen(Address self, Address dst, TimePoint horizon, Tracer& tr)
      : self_(self), dst_(dst), horizon_(horizon), tr_(tr) {}

  void setup() override {
    net_ = &require<messaging::Network>();
    timer_ = &require<kompics::Timer>();
    timeout_ = kompics::next_timeout_id();
    subscribe<kompics::Start>(control(), [this](const kompics::Start&) {
      trigger(kompics::make_event<kompics::SchedulePeriodic>(
                  timeout_, Duration::zero(), kPingInterval),
              *timer_);
    });
    subscribe<kompics::Timeout>(*timer_, [this](const kompics::Timeout& t) {
      if (t.id != timeout_) return;
      const TimePoint now = clock().now();
      if (now >= horizon_) {
        trigger(kompics::make_event<kompics::CancelTimeout>(timeout_), *timer_);
        return;
      }
      HandlerTimer ht(tr_, "apps.ping", sent + 1);
      max_late = std::max(max_late, now - due(sent + 1));
      ++sent;
      answered_.push_back(false);
      BasicHeader h{self_, dst_, Transport::kTcp};
      trigger(kompics::make_event<apps::PingMsg>(h, sent, now.as_nanos()), *net_);
    });
    subscribe<apps::PongMsg>(*net_, [this](const apps::PongMsg& p) {
      HandlerTimer ht(tr_, "apps.pong", p.seq());
      if (p.seq() == 0 || p.seq() > sent || answered_[p.seq() - 1]) {
        ++bad;
        return;
      }
      answered_[p.seq() - 1] = true;
      ++pongs;
      rtt_ms.add((clock().now() - due(p.seq())).as_millis());
    });
  }
  kompics::PortInstance& network() { return *net_; }
  kompics::PortInstance& timer() { return *timer_; }

  std::uint64_t sent = 0;
  std::uint64_t pongs = 0;
  std::uint64_t bad = 0;
  Duration max_late = Duration::zero();
  kmsg::SampleSet rtt_ms;

 private:
  static TimePoint due(std::uint64_t seq) {
    return TimePoint::zero() + kPingInterval * static_cast<std::int64_t>(seq - 1);
  }

  Address self_;
  Address dst_;
  TimePoint horizon_;
  Tracer& tr_;
  kompics::PortInstance* net_ = nullptr;
  kompics::PortInstance* timer_ = nullptr;
  kompics::TimeoutId timeout_ = 0;
  std::vector<bool> answered_;
};

/// Echoes each ping as a pong over the protocol it arrived on.
class PongEcho final : public kompics::ComponentDefinition {
 public:
  PongEcho(Address self, Tracer& tr) : self_(self), tr_(tr) {}
  void setup() override {
    net_ = &require<messaging::Network>();
    subscribe<apps::PingMsg>(*net_, [this](const apps::PingMsg& p) {
      HandlerTimer ht(tr_, "apps.pong_echo", p.seq());
      BasicHeader h{self_, p.header().source(), p.header().protocol()};
      trigger(kompics::make_event<apps::PongMsg>(h, p.seq(), p.sent_at_nanos()),
              *net_);
    });
  }
  kompics::PortInstance& network() { return *net_; }

 private:
  Address self_;
  Tracer& tr_;
  kompics::PortInstance* net_ = nullptr;
};

RepResult run_ping_under_bulk(std::uint64_t seed, Tracer& tr) {
  RepResult r;
  const TimePoint horizon = TimePoint::zero() + Duration::seconds(kPingHorizonS);
  const std::int64_t t0 = cpu_ns();
  std::optional<apps::TwoNodeExperiment> exp;
  PingGen* pinger = nullptr;
  apps::DataSink* sink = nullptr;
  std::optional<Observers> obs;
  {
    ScopedSpan span(tr, "kompics.setup");
    exp.emplace(two_node_config(netsim::Setup::kEu2Us, seed, true));
    pinger = &exp->system().create<PingGen>("pinger", exp->addr_a(),
                                            exp->addr_b(), horizon, tr);
    auto& echo = exp->system().create<PongEcho>("ponger", exp->addr_b(), tr);
    exp->connect_a(pinger->network());
    exp->connect_timer(pinger->timer());
    exp->connect_b(echo.network());
    apps::DataSourceConfig scfg;
    scfg.self = exp->addr_a();
    scfg.dst = exp->addr_b();
    scfg.total_bytes = 0;  // stream for the whole run
    scfg.chunk_bytes = kChunkBytes;
    scfg.protocol = Transport::kData;
    auto& source = exp->system().create<apps::DataSource>("source", scfg);
    apps::DataSinkConfig kcfg;
    kcfg.self = exp->addr_b();
    sink = &exp->system().create<apps::DataSink>("sink", kcfg);
    exp->connect_a(source.network());
    exp->connect_b(sink->network());
    obs.emplace(*exp, tr.on());
    exp->start();
  }
  const std::int64_t t1 = cpu_ns();
  r.setup_s = to_s(t1 - t0);

  auto& sim = exp->simulator();
  std::uint64_t events = run_slices(sim, tr, horizon, Duration::seconds(1.0),
                                    [] { return true; });
  const std::uint64_t data_bytes = sink->bytes_received();
  const std::uint64_t inflight_at_horizon = pinger->sent - pinger->pongs;
  // Drain: every ping in flight at the horizon must still be answered.
  events += run_slices(sim, tr, horizon + Duration::seconds(kDrainS),
                       Duration::millis(10),
                       [&] { return pinger->pongs + pinger->bad < pinger->sent; });
  r.run_s = to_s(cpu_ns() - t1);
  r.sim_s = sim.now().as_seconds();
  r.msgs = pinger->pongs + sink->chunks_received();
  r.counts["apps.chunks_delivered"] += static_cast<double>(sink->chunks_received());
  r.attempted = pinger->sent;
  r.failed = pinger->sent - pinger->pongs;

  const auto expected = static_cast<std::uint64_t>(
      Duration::seconds(kPingHorizonS).as_nanos() / kPingInterval.as_nanos());
  r.gate(pinger->sent == expected, "ping_under_bulk: pings sent != horizon / interval");
  r.gate(pinger->max_late == Duration::zero(), "ping_under_bulk: the generator ran late");
  // Every ping still in flight at the horizon is answered during the drain,
  // so pongs >= pings sent - in flight holds with equality at the end.
  r.gate(pinger->pongs == pinger->sent, "ping_under_bulk: pings never answered");
  r.gate(pinger->bad == 0, "ping_under_bulk: duplicate or unknown pongs");

  add_rtt_outcomes(r, pinger->rtt_ms);
  r.outcome("goodput_data_MBps", "MB/s",
            static_cast<double>(data_bytes) / kPingHorizonS / 1e6);
  r.outcome("pings_in_flight_at_horizon", "count",
            static_cast<double>(inflight_at_horizon));
  collect_two_node(r, *exp, events);
  obs->collect(r);
  r.outcome("fail_ratio", "ratio", fail_ratio(r));
  r.traced["apps.payload_bytes_generated"] =
      r.traced["apps.chunk_attempts"] * static_cast<double>(kChunkBytes);
  return r;
}

// --- gossip_10k: the sharded engine at scale ---------------------------------

constexpr unsigned kRegions = 1250;
constexpr unsigned kHostsPerRegion = 8;
constexpr double kGossipRunForS = 8.0;

apps::GossipConfig gossip_config() {
  apps::GossipConfig cfg;
  cfg.run_for = Duration::seconds(kGossipRunForS);
  cfg.heartbeat_period = Duration::millis(1000);
  cfg.suspect_timeout = Duration::millis(2200);
  cfg.dead_timeout = Duration::millis(3000);
  cfg.rumors = 64;
  cfg.rumor_window = Duration::seconds(2.0);
  cfg.fanout = 5;
  cfg.churn_events = 200;
  cfg.churn_from = Duration::millis(500);
  cfg.churn_to = Duration::seconds(4.0);
  cfg.churn_down_for = Duration::seconds(3.5);
  return cfg;
}

unsigned gossip_shards() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

struct GossipRun {
  std::uint64_t fingerprint = 0;
  apps::GossipStats stats;
  std::string chaos_trace;
  double run_s = 0.0;  ///< wall inside the run calls (sim.shard_speedup)
};

/// Builds and runs one overlay world. `threads` is passed to the engine's
/// run calls: 0 runs one thread per shard, 1 runs the shards round-robin
/// on the calling thread (same protocol, bit-identical result).
GossipRun gossip_world(RepResult& r, Tracer& tr, std::uint64_t seed,
                       unsigned shards, unsigned threads) {
  const std::int64_t c0 = cpu_ns();
  netsim::StarOfRegionsConfig topo_cfg;
  topo_cfg.regions = kRegions;
  topo_cfg.hosts_per_region = kHostsPerRegion;
  kmsg::sim::ShardedSimulator ssim(shards);
  netsim::Network net(ssim, derive_seed(seed, kTagWorld));
  std::vector<netsim::HostId> ids;
  {
    ScopedSpan span(tr, "netsim.build");
    const auto spec =
        netsim::make_star_of_regions(topo_cfg, derive_seed(seed, kTagTopology));
    ids = netsim::build_topology(spec, net);
    net.finalize_shards();
  }
  netsim::ChaosSchedule chaos(net, derive_seed(seed, kTagChaos));
  {
    ScopedSpan span(tr, "netsim.chaos_arm");
    std::vector<netsim::HostId> left(ids.begin(), ids.begin() + ids.size() / 2);
    std::vector<netsim::HostId> right(ids.begin() + ids.size() / 2, ids.end());
    chaos.partition_at(Duration::seconds(1.5), {left, right})
        .heal_at(Duration::seconds(3.0))
        .random_flaps(120, Duration::millis(300), Duration::seconds(4.0),
                      Duration::seconds(2.5));
    chaos.arm();
  }
  const apps::GossipConfig cfg = gossip_config();
  apps::GossipOverlay overlay(net, cfg, derive_seed(seed, kTagGossip));
  {
    ScopedSpan span(tr, "apps.gossip_start");
    overlay.start();
  }
  const std::int64_t t1 = wall_ns();
  const std::int64_t c1 = cpu_ns();

  std::uint64_t events = 0;
  set_alloc_counting(tr.on());
  const auto whole_s = static_cast<int>(kGossipRunForS);
  for (int s = 1; s <= whole_s; ++s) {
    ScopedSpan span(tr, "sim.run");
    events += ssim.run_until(TimePoint::zero() + Duration::seconds(s), threads);
  }
  {
    ScopedSpan span(tr, "sim.run");
    events += ssim.run_to_quiescence(
        TimePoint::zero() + Duration::seconds(kGossipRunForS) + Duration::millis(250),
        threads);
  }
  const std::int64_t t2 = wall_ns();
  const std::int64_t c2 = cpu_ns();
  set_alloc_counting(false);

  GossipRun g;
  g.fingerprint = overlay.fingerprint();
  g.stats = overlay.stats();
  g.chaos_trace = chaos.trace_string();
  g.run_s = to_s(t2 - t1);

  // The repetition's own times are CPU times; with one thread per shard
  // they add up the threads, so only the round-robin run's are reported.
  r.setup_s += to_s(c1 - c0);
  r.run_s += to_s(c2 - c1);
  double sim_end_s = 0.0;
  for (unsigned i = 0; i < shards; ++i) {
    sim_end_s = std::max(sim_end_s, ssim.shard(i).now().as_seconds());
  }
  r.sim_s += sim_end_s;
  std::size_t running = 0;
  std::size_t seen = 0;
  for (const auto id : ids) {
    const auto& node = overlay.node(id);
    if (!node.running()) continue;
    ++running;
    seen += node.rumors_seen();
  }
  r.outcome("rumor_coverage", "ratio",
            ratio(static_cast<double>(seen), static_cast<double>(running) * cfg.rumors));
  r.gate(ssim.idle(), "gossip_10k: not quiescent at the end");
  r.gate(g.stats.stops <= cfg.churn_events, "gossip_10k: more stops than churn events");
  r.gate(g.stats.rejoins <= g.stats.stops, "gossip_10k: more rejoins than stops");
  r.gate(g.stats.rumor_deliveries > 0, "gossip_10k: no rumor delivered");
  add_link_stats(r, net);
  r.counts["sim.events"] += static_cast<double>(events);
  r.counts["gossip.heartbeats_sent"] += static_cast<double>(g.stats.heartbeats_sent);
  r.counts["gossip.rumor_deliveries"] += static_cast<double>(g.stats.rumor_deliveries);
  r.counts["gossip.suspects"] += static_cast<double>(g.stats.suspects);
  r.counts["gossip.stops"] += static_cast<double>(g.stats.stops);
  r.counts["gossip.rejoins"] += static_cast<double>(g.stats.rejoins);
  r.counts["gossip.fingerprint_low32"] +=
      static_cast<double>(g.fingerprint & 0xffffffffu);
  return g;
}

RepResult run_gossip_10k(std::uint64_t seed, Tracer& tr) {
  RepResult r;
  const unsigned shards = gossip_shards();
  // The timed run drives the shards round-robin on one thread. With one
  // thread per shard the wall time swung 5x with the hypervisor's steal time
  // on a shared 4-vCPU host, which no bound can hold; the threaded run is
  // timed in traced runs instead (sim.shard_speedup).
  const GossipRun timed = gossip_world(r, tr, seed, shards, 1);
  r.msgs = static_cast<std::uint64_t>(r.counts["netsim.datagrams_delivered"]);
  r.attempted = 1;
  if (tr.on()) {
    // A threaded run and a 1-shard run must reproduce the timed run exactly.
    Tracer off(false);
    RepResult threaded_r;
    const GossipRun threaded = gossip_world(threaded_r, off, seed, shards, 0);
    RepResult one_r;
    const GossipRun one = gossip_world(one_r, off, seed, 1, 0);
    r.traced["sim.shard_speedup"] += ratio(one.run_s, threaded.run_s);
    r.traced["sim.shard_reps"] += 1;
    for (const auto* g : {&threaded, &one}) {
      const std::string which = g == &one ? "1-shard" : "threaded";
      r.gate(g->fingerprint == timed.fingerprint,
             "gossip_10k: " + which + " fingerprint differs from the timed run");
      r.gate(g->stats == timed.stats,
             "gossip_10k: " + which + " GossipStats differ from the timed run");
      r.gate(g->chaos_trace == timed.chaos_trace,
             "gossip_10k: " + which + " chaos trace differs from the timed run");
    }
  }
  r.failed = r.gate_failures.empty() ? 0 : 1;
  return r;
}

const Workload kWorkloads[] = {
    {"bulk", 6, false, run_bulk},
    {"rpc", 3, false, run_rpc},
    {"ping_under_bulk", 24, true, run_ping_under_bulk},
    {"gossip_10k", 2, false, run_gossip_10k},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
