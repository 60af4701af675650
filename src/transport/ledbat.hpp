// LEDBAT (Low Extra Delay Background Transport, RFC 6817) over the simulated
// network.
//
// The paper motivates KompicsMessaging partly with an earlier LEDBAT
// implementation on top of Kompics/Netty/UDP whose application-level timing
// was too inconsistent; here LEDBAT is a first-class transport engine like
// TCP and UDT. It is a window-based reliable stream over UDP whose
// congestion controller targets a fixed amount of *extra one-way delay*
// (RFC 6817 caps the target at 100 ms; we default to 25 ms to suit the
// simulated paths): the window grows while measured queueing delay
// is below the target and shrinks proportionally when above, so LEDBAT flows
// yield to any loss-based (TCP-like) traffic sharing the bottleneck — the
// "scavenger" property, verified in the tests and the background-transport
// ablation bench.
//
// In the simulator both endpoints share one clock, so one-way delay
// measurements are exact — the place where real deployments need base-delay
// filtering against clock skew (we still keep the rolling base-delay
// minimum, as the base delay genuinely changes when routes are
// reconfigured).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "transport/stream.hpp"

namespace kmsg::transport {

/// Segments carry kStreamMss payload bytes. The window gain is 1 for
/// increases (the RFC's cap) and 10 for decreases: RFC 6817 allows a
/// stronger decrease gain, and it is what guarantees the scavenger property
/// against aggressive loss-based flows. The base delay is the minimum over
/// ten 10 s buckets (BASE_HISTORY).
struct LedbatConfig {
  std::size_t send_buffer_bytes = 4 * 1024 * 1024;
  std::size_t recv_buffer_bytes = 4 * 1024 * 1024;
  /// Queueing-delay target (RFC 6817 TARGET). Lower = more deferential.
  Duration target_delay = Duration::millis(25);
  Duration min_rto = Duration::millis(200);
  Duration max_rto = Duration::seconds(60.0);
  Duration initial_rto = Duration::seconds(1.0);
  int max_data_retries = 10;
  int handshake_retries = 8;
  Duration handshake_rto = Duration::millis(250);
};

struct LedbatCcStats {
  double queuing_delay_ms = 0.0;   ///< latest sample
  double base_delay_ms = 0.0;      ///< rolling minimum
  double cwnd_bytes = 0.0;
  std::uint64_t losses = 0;
};

class LedbatConnection final
    : public StreamEngine<LedbatConnection, LedbatConfig> {
 public:
  static constexpr netsim::IpProto kProto = netsim::IpProto::kUdp;
  /// A handshake request (not a response).
  static bool is_open_request(const netsim::Datagram& dg);

  ~LedbatConnection() override;

  const LedbatCcStats& cc_stats() const { return cc_; }

 private:
  friend class StreamEngine<LedbatConnection, LedbatConfig>;

  LedbatConnection(netsim::Host& host, netsim::HostId peer,
                   netsim::Port peer_port, bool passive, LedbatConfig config);

  // StreamConnection hooks.
  void send_handshake() override;
  void answer_open(const netsim::Datagram& request) override;
  void on_established() override;
  void transmit() override { pump(); }
  void on_close_requested() override { maybe_finish_close(); }
  void send_teardown() override;
  void stop_timers() override { rto_timer_.cancel(); }
  void on_datagram(const netsim::Datagram& dg) override;

  void handle_data(const struct LedbatData& pkt);
  void handle_ack(const struct LedbatAck& pkt);
  void update_window(Duration delay_sample, std::uint64_t acked_bytes);
  void pump();
  void send_segment(std::uint64_t seq, std::size_t len, bool retransmit);
  void arm_rto();
  void on_rto();
  void maybe_finish_close();

  LedbatConfig config_;
  LedbatCcStats cc_;

  // Sender.
  std::uint64_t retransmit_high_ = 0;
  double cwnd_ = 0.0;
  int dup_acks_ = 0;
  sim::EventHandle rto_timer_;
  Duration rto_;
  int backoff_ = 0;

  // LEDBAT base-delay tracking: rolling minimum in coarse buckets.
  std::deque<Duration> base_buckets_;
  TimePoint bucket_started_ = TimePoint::zero();
};

}  // namespace kmsg::transport
