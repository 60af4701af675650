// Gossip / pub-sub overlay workload for large sharded topologies.
//
// One GossipNode per host, operating directly at the netsim datagram layer
// (no per-node Kompics runtime — at 10k+ nodes the overlay itself is the
// system under test, and the datagram layer is the shard-safe substrate):
//
//  - Heartbeats: every node beats to each overlay neighbour on a fixed
//    period (with a per-node seeded phase), and supervises each peer with a
//    cancel/re-arm timeout FSM: Healthy -> Suspected after suspect_timeout
//    of silence, Suspected -> Dead after dead_timeout, back to Healthy on
//    any sign of life. Every heartbeat received cancels and re-arms the
//    peer's timer — under sharding that is a local cancel raced against
//    cross-shard deliveries, precisely the interaction the parity tests pin.
//  - Rumor mongering: rumors injected at scripted nodes/times flood the
//    overlay; a node forwards each rumor once to `fanout` random peers drawn
//    from its private seeded Rng.
//  - Churn: scripted stop/rejoin events take nodes offline (unbind, cancel
//    all timers) and bring them back, exercising supervision transitions at
//    scale.
//
// Determinism: all control-plane events (node starts, rumor injections,
// churn) are armed on each host's shard simulator *before* the run, in
// builder order — so they occupy the invariantly-earliest band-0 keys of
// their instants in every shard layout. Runtime behaviour (timer re-arms,
// forward fan-out, Rng draws) happens inside node event handlers, which each
// shard's wheel fires in the layout-invariant (time, key) order. The
// overlay's fingerprint() — a per-node event-log hash combined in host
// order — is therefore bit-identical across shard counts, which the parity
// and soak tests assert.
//
// Quiescence: nodes stop re-arming timers and stop sending once the
// configured `run_for` horizon is reached, so the world drains and
// ShardedSimulator::run_to_quiescence() terminates.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "netsim/network.hpp"

namespace kmsg::apps {

inline constexpr netsim::Port kGossipPort = 7946;

struct GossipConfig {
  /// Overlay lifetime: no node schedules anything at or beyond this time.
  Duration run_for = Duration::seconds(10.0);
  Duration heartbeat_period = Duration::millis(1000);
  /// Silence thresholds for the per-peer supervision FSM.
  Duration suspect_timeout = Duration::millis(2500);
  Duration dead_timeout = Duration::millis(5000);
  /// Rumor flood: `rumors` rumors injected at random nodes, at random times
  /// in [0, rumor_window).
  unsigned rumors = 4;
  Duration rumor_window = Duration::seconds(2.0);
  unsigned fanout = 3;
  std::size_t rumor_payload_bytes = 256;
  /// Churn: `churn_events` nodes stop at random times in
  /// [churn_from, churn_to), each rejoining after churn_down_for (when that
  /// still falls inside run_for).
  unsigned churn_events = 0;
  Duration churn_from = Duration::seconds(1.0);
  Duration churn_to = Duration::seconds(4.0);
  Duration churn_down_for = Duration::seconds(2.0);
};

/// Aggregated overlay counters (summed over nodes on demand).
struct GossipStats {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t rumors_forwarded = 0;   ///< rumor datagrams sent
  std::uint64_t rumor_deliveries = 0;   ///< first-time rumor receptions
  std::uint64_t suspects = 0;           ///< Healthy -> Suspected transitions
  std::uint64_t deaths = 0;             ///< Suspected -> Dead transitions
  std::uint64_t recoveries = 0;         ///< back-to-Healthy transitions
  std::uint64_t stops = 0;              ///< churn stop events applied
  std::uint64_t rejoins = 0;            ///< churn rejoin events applied

  bool operator==(const GossipStats&) const = default;
};

enum class PeerHealth : std::uint8_t { kHealthy, kSuspected, kDead };

class GossipOverlay;

/// One overlay participant, pinned to (and only ever touched by) its host's
/// shard. Lifecycle and wiring are owned by GossipOverlay.
class GossipNode {
 public:
  netsim::HostId id() const { return id_; }
  bool running() const { return running_; }
  std::size_t rumors_seen() const { return seen_.size(); }
  PeerHealth peer_health(netsim::HostId peer) const;

 private:
  friend class GossipOverlay;

  struct PeerView {
    PeerHealth health = PeerHealth::kHealthy;
    sim::EventHandle timeout;
  };

  GossipNode(GossipOverlay& overlay, netsim::HostId id, std::uint64_t seed)
      : overlay_(overlay), id_(id), rng_(seed) {}

  void start();
  void stop();
  void rejoin();
  void inject_rumor(std::uint32_t rumor);

  void on_datagram(const netsim::Datagram& dg);
  void on_heartbeat_timer();
  void accept_rumor(std::uint32_t rumor, std::uint8_t hop);
  void forward_rumor(std::uint32_t rumor, std::uint8_t hop);
  void alive_sign(netsim::HostId peer);
  /// The view of overlay neighbour `peer`, or nullptr for a non-neighbour.
  const PeerView* view_of(netsim::HostId peer) const;
  PeerView* view_of(netsim::HostId peer);
  void arm_peer_timeout(PeerView& view, netsim::HostId peer, Duration after);
  void on_peer_timeout(netsim::HostId peer);
  /// Folds an observable event into this node's fingerprint hash.
  void note(std::uint32_t code, std::uint64_t a, std::uint64_t b);

  sim::Simulator& sim();
  netsim::Host& host();
  bool before_deadline(Duration lead);

  GossipOverlay& overlay_;
  netsim::HostId id_;
  Rng rng_;
  bool running_ = false;
  std::vector<netsim::HostId> peers_;  ///< sorted, distinct
  /// One view per peer, in peers_ order (so sorted by peer).
  std::vector<std::pair<netsim::HostId, PeerView>> views_;
  std::unordered_set<std::uint32_t> seen_;
  sim::EventHandle heartbeat_;

  // Single-writer counters; GossipOverlay::stats() sums them between runs.
  GossipStats local_;
  std::uint64_t fp_ = 1469598103934665603ULL;  // FNV-1a offset basis
};

/// Builds and drives GossipNodes over every host of a Network. Construct,
/// then start() once (pre-run) to arm the control plane; then run the
/// network's engine. All accessors are for use between runs.
class GossipOverlay {
 public:
  GossipOverlay(netsim::Network& net, GossipConfig config, std::uint64_t seed);
  GossipOverlay(const GossipOverlay&) = delete;
  GossipOverlay& operator=(const GossipOverlay&) = delete;

  /// Creates one node per existing host (overlay neighbours = linked hosts),
  /// arms node starts, rumor injections, and churn. Call exactly once,
  /// before running the simulation.
  void start();

  const GossipConfig& config() const { return config_; }
  std::size_t node_count() const { return nodes_.size(); }
  GossipNode& node(netsim::HostId h) { return *nodes_.at(h); }
  const GossipNode& node(netsim::HostId h) const { return *nodes_.at(h); }

  /// Counters summed over all nodes.
  GossipStats stats() const;
  /// Layout-invariant digest of every node's observable event history.
  std::uint64_t fingerprint() const;
  /// Number of rumors that reached every node which was running at overlay
  /// end (rumor completeness metric for the flood).
  std::size_t rumors_fully_spread() const;

 private:
  friend class GossipNode;

  netsim::Network& net_;
  GossipConfig config_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<GossipNode>> nodes_;
  bool started_ = false;
};

}  // namespace kmsg::apps
