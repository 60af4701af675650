// Golden per-engine fingerprint: one fixed-seed bulk transfer over a link
// that loses, duplicates, corrupts and reorders datagrams, summarised as
// text — the completion time, every ConnStats field of both endpoints, the
// engine's congestion-control state and both directions' LinkStats. Any
// change to when a stream engine emits a datagram, or to what it counts,
// moves at least one line, so the golden strings in the transport tests pin
// each engine's observable behaviour exactly.
//
// The reorder jitter (5 ms) stays below every handshake timeout, so no open
// request can arrive after its connection is established.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "netsim/network.hpp"
#include "transport/stream.hpp"

namespace kmsg::transport::fingerprint {

inline netsim::LinkConfig faulty_link() {
  netsim::LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 20e6;
  cfg.propagation_delay = Duration::millis(10);
  cfg.queue_capacity_bytes = 1 << 20;
  cfg.random_loss_rate = 0.01;
  cfg.duplicate_rate = 0.01;
  cfg.corrupt_rate = 0.01;
  cfg.reorder_rate = 0.05;
  cfg.reorder_jitter = Duration::millis(5);
  return cfg;
}

/// "name=value" lines; doubles print with round-trip precision.
class Text {
 public:
  void add(const std::string& name, std::uint64_t v) {
    out_ += name + "=" + std::to_string(v) + "\n";
  }
  void add(const std::string& name, std::int64_t v) {
    out_ += name + "=" + std::to_string(v) + "\n";
  }
  void add(const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += name + "=" + buf + "\n";
  }
  void add(const std::string& p, const ConnStats& s) {
    add(p + ".bytes_written", s.bytes_written);
    add(p + ".bytes_sent_wire", s.bytes_sent_wire);
    add(p + ".bytes_acked", s.bytes_acked);
    add(p + ".bytes_delivered", s.bytes_delivered);
    add(p + ".segments_sent", s.segments_sent);
    add(p + ".segments_retransmitted", s.segments_retransmitted);
    add(p + ".timeouts", s.timeouts);
    add(p + ".smoothed_rtt_ns", s.smoothed_rtt.as_nanos());
  }
  void add(const std::string& p, const netsim::LinkStats& s) {
    add(p + ".datagrams_sent", s.datagrams_sent);
    add(p + ".datagrams_delivered", s.datagrams_delivered);
    add(p + ".drops_queue_full", s.drops_queue_full);
    add(p + ".drops_random", s.drops_random);
    add(p + ".drops_policer", s.drops_policer);
    add(p + ".bytes_delivered", s.bytes_delivered);
    add(p + ".drops_link_down", s.drops_link_down);
    add(p + ".drops_host_down", s.drops_host_down);
    add(p + ".drops_proto_blocked", s.drops_proto_blocked);
    add(p + ".duplicated", s.duplicated);
    add(p + ".corrupted", s.corrupted);
    add(p + ".reordered", s.reordered);
  }
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// Sends `bytes` from a client on host a to a server accepted on host b
/// (port `port`) over faulty_link(), runs the world to `horizon` and returns
/// the fingerprint. The client closes once everything is written, so the
/// graceful-close path is part of the trace. `cc(prefix, conn, text)`
/// appends the engine's congestion-control state for each endpoint.
template <class Listener, class Conn, class Config, class CcFn>
std::string run(Config cfg, netsim::Port port, std::size_t bytes,
                std::uint64_t seed, Duration horizon, CcFn cc) {
  sim::Simulator sim;
  netsim::Network net(sim, seed);
  auto& a = net.add_host();
  auto& b = net.add_host();
  net.add_duplex_link(a.id(), b.id(), faulty_link());

  std::shared_ptr<Conn> server;
  std::uint64_t received = 0;
  TimePoint done = TimePoint::zero();
  Listener listener(b, port, cfg, [&](auto conn) {
    server = conn;
    server->set_on_data([&](std::span<const std::uint8_t> d) {
      received += d.size();
      if (received == bytes) done = sim.now();
    });
  });
  auto client = Conn::connect(a, b.id(), port, cfg);
  const std::vector<std::uint8_t> chunk(64 * 1024, 0x5a);
  std::size_t written = 0;
  auto pump = [&] {
    while (written < bytes) {
      const std::size_t want = std::min(chunk.size(), bytes - written);
      const std::size_t n = client->write({chunk.data(), want});
      written += n;
      if (n == 0) break;
    }
    if (written == bytes) client->close();
  };
  client->set_on_connected(pump);
  client->set_on_writable(pump);
  sim.run_until(TimePoint::zero() + horizon);

  Text t;
  t.add("done_ns", done.as_nanos());
  t.add("received", received);
  t.add("client.state", static_cast<std::uint64_t>(client->state()));
  t.add("client", client->stats());
  cc("client", *client, t);
  if (server) {
    t.add("server.state", static_cast<std::uint64_t>(server->state()));
    t.add("server", server->stats());
    cc("server", *server, t);
  }
  t.add("link_ab", net.link(a.id(), b.id())->stats());
  t.add("link_ba", net.link(b.id(), a.id())->stats());
  return t.str();
}

}  // namespace kmsg::transport::fingerprint
