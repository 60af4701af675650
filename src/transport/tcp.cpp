#include "transport/tcp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace kmsg::transport {

namespace {
constexpr std::uint8_t kSyn = 1;
constexpr std::uint8_t kAck = 2;
constexpr std::uint8_t kFin = 4;
constexpr std::uint8_t kRst = 8;
}  // namespace

struct TcpSegment : netsim::DatagramBody {
  std::uint8_t flags = 0;
  std::uint64_t seq = 0;  ///< absolute offset of first payload byte
  std::uint64_t ack = 0;  ///< cumulative ack: next expected byte
  std::uint32_t window = 0;
  /// SACK blocks: the receiver's missing byte ranges (what it has NOT got),
  /// equivalent information to RFC 2018 blocks but hole-oriented.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sack_holes;
  wire::BufSlice payload;
};

namespace {
constexpr std::size_t kInitialCwndSegments = 10;  // RFC 6928
constexpr std::size_t kMaxSackHoles = 8;
constexpr int kMaxSackRexmitPerAck = 8;
}  // namespace

bool TcpConnection::is_open_request(const netsim::Datagram& dg) {
  const auto* seg = dynamic_cast<const TcpSegment*>(dg.body.get());
  return seg && (seg->flags & kSyn) && !(seg->flags & kAck);
}

TcpConnection::TcpConnection(netsim::Host& host, netsim::HostId peer,
                             netsim::Port peer_port, bool passive,
                             TcpConfig config)
    : StreamEngine(host, peer, peer_port, passive,
                   Wire{kProto, netsim::kIpTcpHeaderBytes, config.initial_rto,
                        config.max_rto, config.max_syn_retries},
                   config.send_buffer_bytes, config.recv_buffer_bytes),
      config_(config),
      cwnd_(static_cast<double>(kInitialCwndSegments * kStreamMss)),
      ssthresh_(config.initial_ssthresh_bytes),
      rto_(config.initial_rto) {}

TcpConnection::~TcpConnection() { rto_timer_.cancel(); }

void TcpConnection::send_handshake() {
  send_control(passive() ? (kSyn | kAck) : kSyn, 0);
}

void TcpConnection::answer_open(const netsim::Datagram& request) {
  peer_window_ = static_cast<const TcpSegment&>(*request.body).window;
  start_handshake();  // SYN|ACK, retried until the client's ACK arrives
}

void TcpConnection::on_repeated_open() {
  // A retransmitted SYN re-triggers the SYN|ACK while the handshake is
  // open. Once established, the client's ACK has proven it holds the
  // SYN|ACK, so a late SYN is a stale duplicate and needs no answer.
  if (state() == ConnState::kConnecting) send_handshake();
}

void TcpConnection::on_established() {
  // The data RTO starts from the handshake's (possibly backed-off) timeout.
  rto_ = handshake_timeout();
}

void TcpConnection::send_teardown() {
  auto seg = std::make_shared<TcpSegment>();
  seg->flags = kRst;
  emit(std::move(seg), 0);
}

void TcpConnection::send_control(std::uint8_t flags, std::uint64_t seq) {
  auto seg = std::make_shared<TcpSegment>();
  seg->flags = flags;
  seg->seq = seq;
  seg->ack = reasm_.expected();
  if (peer_fin_seen_ && reasm_.expected() >= peer_fin_seq_) {
    seg->ack = peer_fin_seq_ + 1;
  }
  seg->window = static_cast<std::uint32_t>(
      std::min<std::size_t>(reasm_.available(), 0xffffffffu));
  seg->sack_holes = reasm_.missing_ranges(kMaxSackHoles);
  emit(std::move(seg), 0);
}

void TcpConnection::send_ack() { send_control(kAck, next_seq_); }

void TcpConnection::pump() {
  if (state() != ConnState::kEstablished && state() != ConnState::kClosing) return;
  const double wnd = std::min(cwnd_, static_cast<double>(peer_window_));
  while (next_seq_ < send_buf_.end()) {
    const auto inflight = static_cast<double>(next_seq_ - snd_una_);
    if (inflight >= wnd) break;
    const auto room = static_cast<std::size_t>(wnd - inflight);
    const auto avail = static_cast<std::size_t>(send_buf_.end() - next_seq_);
    const std::size_t len = std::min({kStreamMss, avail, room});
    if (len == 0) break;
    const bool rexmit = next_seq_ < retransmit_high_;
    send_segment(next_seq_, len, rexmit);
    next_seq_ += len;
  }
  maybe_send_fin();
  arm_rto();
}

void TcpConnection::send_segment(std::uint64_t seq, std::size_t len,
                                 bool retransmit) {
  auto seg = std::make_shared<TcpSegment>();
  seg->flags = kAck;
  seg->seq = seq;
  seg->ack = reasm_.expected();
  seg->window = static_cast<std::uint32_t>(
      std::min<std::size_t>(reasm_.available(), 0xffffffffu));
  seg->payload = send_buf_.read_at(seq, len);
  emit(std::move(seg), len);
  ++stats_.segments_sent;
  stats_.bytes_sent_wire += len;
  if (retransmit) ++stats_.segments_retransmitted;
  inflight_meta_.push_back(SegMeta{seq + len, simulator().now(), retransmit});
}

void TcpConnection::maybe_send_fin() {
  if (state() != ConnState::kClosing || fin_sent_) return;
  if (next_seq_ != send_buf_.end()) return;  // data still to transmit
  fin_seq_ = send_buf_.end();
  fin_sent_ = true;
  next_seq_ = fin_seq_ + 1;  // FIN occupies one sequence number
  send_control(kFin | kAck, fin_seq_);
}

void TcpConnection::arm_rto() {
  rto_timer_.cancel();
  if (snd_una_ >= next_seq_) return;  // nothing outstanding
  rto_timer_ = after(rto_, &TcpConnection::on_rto);
}

void TcpConnection::on_rto() {
  if (state() == ConnState::kClosed) return;
  if (snd_una_ >= next_seq_) return;
  ++stats_.timeouts;
  ++backoff_;
  if (backoff_ > config_.max_data_retries) {
    // No ACK progress across the whole backoff ladder: the peer is gone.
    abort();
    return;
  }
  on_congestion_event();
  cwnd_ = static_cast<double>(kStreamMss);
  dup_acks_ = 0;
  in_recovery_ = false;
  rto_ = std::min(rto_ * 2, config_.max_rto);
  if (fin_sent_ && snd_una_ >= fin_seq_) {
    // Only the FIN is outstanding: retransmit just it.
    send_control(kFin | kAck, fin_seq_);
    arm_rto();
    return;
  }
  // Go-back-N: rewind the transmit pointer; bytes below the old high-water
  // mark count as retransmissions (Karn's rule excludes them from RTT).
  retransmit_high_ = std::max(retransmit_high_, next_seq_);
  inflight_meta_.clear();
  fin_sent_ = false;
  next_seq_ = snd_una_;
  // Force one segment out regardless of the congestion/receive window: this
  // doubles as the zero-window persist probe (a closed window must not
  // silence the connection or it deadlocks).
  const auto len = std::min<std::size_t>(
      kStreamMss, static_cast<std::size_t>(send_buf_.end() - snd_una_));
  if (len > 0) {
    send_segment(snd_una_, len, true);
    next_seq_ = snd_una_ + len;
  }
  pump();
  arm_rto();
}

void TcpConnection::sample_rtt(std::uint64_t acked_to) {
  bool sampled = false;
  Duration sample = Duration::zero();
  while (!inflight_meta_.empty() && inflight_meta_.front().end_seq <= acked_to) {
    const auto& m = inflight_meta_.front();
    if (!m.retransmitted) {
      sample = simulator().now() - m.sent;
      sampled = true;
    }
    inflight_meta_.pop_front();
  }
  if (!sampled) return;
  if (srtt_ == Duration::zero()) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const auto err =
        Duration::nanos(std::llabs(srtt_.as_nanos() - sample.as_nanos()));
    rttvar_ = rttvar_ * 3 / 4 + err / 4;
    srtt_ = srtt_ * 7 / 8 + sample / 8;
  }
  stats_.smoothed_rtt = srtt_;
  const Duration var4 = std::max(rttvar_ * 4, Duration::millis(1));
  rto_ = std::clamp(srtt_ + var4, config_.min_rto, config_.max_rto);
  backoff_ = 0;
}

void TcpConnection::on_ack(std::uint64_t ack, std::uint32_t window) {
  const std::uint32_t old_window = peer_window_;
  peer_window_ = window;
  if (ack > snd_una_) {
    const std::uint64_t acked = release_acked(ack);
    sample_rtt(ack);
    dup_acks_ = 0;
    backoff_ = 0;  // any forward progress resets the give-up ladder
    // Repaired holes below the cumulative ack are done; without this prune
    // a stale entry would freeze window growth indefinitely.
    while (!sack_rexmit_after_.empty() &&
           sack_rexmit_after_.begin()->first < snd_una_) {
      sack_rexmit_after_.erase(sack_rexmit_after_.begin());
    }
    if (in_recovery_) {
      if (ack >= recovery_end_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ACK: retransmit the next hole immediately.
        const auto len = std::min<std::size_t>(
            kStreamMss, static_cast<std::size_t>(send_buf_.end() - snd_una_));
        if (len > 0) send_segment(snd_una_, len, true);
      }
    } else {
      grow_cwnd(acked);
    }
    if (fin_sent_ && ack > fin_seq_) {
      finish_close();
      return;
    }
    notify_writable();
    pump();
  } else if (ack == snd_una_ && next_seq_ > snd_una_) {
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_) {
      fast_retransmit();
    } else if (in_recovery_) {
      cwnd_ += static_cast<double>(kStreamMss);
      pump();
    }
  }
  if (window > old_window) {
    pump();  // window update re-opened the pipe
  }
}

void TcpConnection::grow_cwnd(std::uint64_t acked_bytes) {
  // No growth while SACK-reported holes are being repaired (loss recovery),
  // and Appropriate Byte Counting: a hole-filling cumulative ACK may cover
  // megabytes at once but is still one ACK's worth of congestion evidence.
  if (!sack_rexmit_after_.empty()) return;
  acked_bytes = std::min<std::uint64_t>(acked_bytes, 2 * kStreamMss);
  const auto mss = static_cast<double>(kStreamMss);
  if (cwnd_ < ssthresh_) {
    // Slow start (both algorithms).
    cwnd_ += static_cast<double>(std::min<std::uint64_t>(acked_bytes, kStreamMss));
    return;
  }
  if (config_.congestion == TcpCongestion::kNewReno) {
    cwnd_ += mss * mss / cwnd_ * (static_cast<double>(acked_bytes) / mss);
    return;
  }
  // CUBIC (RFC 8312): W(t) = C*(t-K)^3 + Wmax, in MSS units with t in
  // seconds; per-ACK growth toward W(t + RTT).
  constexpr double kC = 0.4;
  constexpr double kBeta = 0.7;
  if (!cubic_epoch_valid_) {
    cubic_epoch_ = simulator().now();
    cubic_epoch_valid_ = true;
    if (cubic_wmax_mss_ <= 0.0) cubic_wmax_mss_ = cwnd_ / mss;
  }
  const double rtt_s = std::max(srtt_.as_seconds(), 1e-3);
  const double k = std::cbrt(cubic_wmax_mss_ * (1.0 - kBeta) / kC);
  const double t = (simulator().now() - cubic_epoch_).as_seconds() + rtt_s;
  const double w_cubic = kC * (t - k) * (t - k) * (t - k) + cubic_wmax_mss_;
  // TCP-friendly region (RFC 8312 §4.2): the window Reno would have reached
  // since the epoch; CUBIC never grows slower than this.
  const double w_est = cubic_wmax_mss_ * kBeta +
                       (3.0 * (1.0 - kBeta) / (1.0 + kBeta)) * (t / rtt_s);
  double w_target = std::max(w_cubic, w_est);
  const double cwnd_mss = cwnd_ / mss;
  // RFC 8312 §4.1: the target is clamped to 1.5x cwnd so the late-epoch
  // convex region cannot burst a whole queue's worth of overshoot at once.
  w_target = std::min(w_target, cwnd_mss * 1.5);
  if (w_target > cwnd_mss) {
    cwnd_ += mss * (w_target - cwnd_mss) / cwnd_mss *
             (static_cast<double>(acked_bytes) / mss);
  }
}

void TcpConnection::on_congestion_event() {
  const double inflight = static_cast<double>(next_seq_ - snd_una_);
  const auto mss = static_cast<double>(kStreamMss);
  if (config_.congestion == TcpCongestion::kCubic) {
    constexpr double kBeta = 0.7;
    cubic_wmax_mss_ = cwnd_ / mss;
    cubic_epoch_valid_ = false;
    ssthresh_ = std::max(cwnd_ * kBeta, 2.0 * mss);
  } else {
    ssthresh_ = std::max(inflight / 2.0, 2.0 * mss);
  }
}

void TcpConnection::handle_sack(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges) {
  if (state() == ConnState::kClosed) return;
  // Prune pacing state below the cumulative ack.
  while (!sack_rexmit_after_.empty() &&
         sack_rexmit_after_.begin()->first < snd_una_) {
    sack_rexmit_after_.erase(sack_rexmit_after_.begin());
  }
  // A hole beyond the current loss epoch is evidence of a new loss event:
  // cut the window once per epoch (SACK-based recovery's equivalent of the
  // fast-retransmit cwnd reduction).
  std::uint64_t max_end = 0;
  for (auto [s0, e0] : ranges) max_end = std::max(max_end, std::min(e0, next_seq_));
  if (max_end > loss_epoch_end_) {
    on_congestion_event();
    cwnd_ = std::max(ssthresh_, 2.0 * static_cast<double>(kStreamMss));
    loss_epoch_end_ = next_seq_;
  }
  const TimePoint now = simulator().now();
  const Duration pace = std::max(srtt_, Duration::millis(10));
  int sent = 0;
  for (auto [s0, e0] : ranges) {
    if (sent >= kMaxSackRexmitPerAck) break;
    std::uint64_t s = std::max(s0, snd_una_);
    const std::uint64_t e = std::min(e0, next_seq_);
    if (s >= e) continue;
    auto [it, inserted] = sack_rexmit_after_.try_emplace(s0, TimePoint::zero());
    if (!inserted && now < it->second) continue;  // recently retransmitted
    while (s < e && sent < kMaxSackRexmitPerAck) {
      const auto len = std::min<std::size_t>(kStreamMss,
                                             static_cast<std::size_t>(e - s));
      send_segment(s, len, true);
      s += len;
      ++sent;
    }
    it->second = now + pace;
  }
  if (sent > 0) arm_rto();
}

void TcpConnection::fast_retransmit() {
  on_congestion_event();
  cwnd_ = ssthresh_ + 3.0 * static_cast<double>(kStreamMss);
  in_recovery_ = true;
  recovery_end_ = next_seq_;
  const auto len = std::min<std::size_t>(
      kStreamMss, static_cast<std::size_t>(send_buf_.end() - snd_una_));
  if (len > 0) send_segment(snd_una_, len, true);
  arm_rto();
}

void TcpConnection::on_datagram(const netsim::Datagram& dg) {
  auto seg = std::dynamic_pointer_cast<const TcpSegment>(dg.body);
  if (!seg) return;

  if (dg.corrupted) {
    // Header-only segments damaged in flight are caught by the transport
    // checksum and discarded (loss recovery covers them). Payload-bearing
    // segments model checksum-escaping bit errors.
    if (seg->payload.empty()) return;
    auto mutated = std::make_shared<TcpSegment>(*seg);
    flip_payload_bit(mutated->payload, seg->seq);
    seg = std::move(mutated);
  }

  if (seg->flags & kRst) {
    finish_close();
    return;
  }

  if (state() == ConnState::kConnecting) {
    if (!passive() && (seg->flags & kSyn) && (seg->flags & kAck)) {
      // SYNACK: learn the server connection's dedicated port.
      peer_port_ = dg.src_port;
      peer_window_ = seg->window;
      send_ack();
      enter_established();
      return;
    }
    if (passive() && (seg->flags & kAck) && !(seg->flags & kSyn)) {
      peer_window_ = seg->window;
      enter_established();
      // Fall through: the completing segment may carry data.
    } else {
      return;  // stray segment during handshake
    }
  } else if (seg->flags & kSyn) {
    // Our handshake ACK was lost and the peer re-announced; re-ack.
    send_ack();
    return;
  }

  handle_established(*seg);
}

void TcpConnection::handle_established(const TcpSegment& seg) {
  if (state() == ConnState::kClosed) return;

  if (seg.flags & kAck) on_ack(seg.ack, seg.window);
  if (state() == ConnState::kClosed) return;  // FIN ack may have closed us
  if (!seg.sack_holes.empty()) handle_sack(seg.sack_holes);

  if (!seg.payload.empty()) {
    deliver(seg.seq, seg.payload.span());
    // Acknowledge all data (also out-of-order: dup ACKs drive fast rexmit).
    send_ack();
  }

  if (seg.flags & kFin) {
    peer_fin_seen_ = true;
    peer_fin_seq_ = seg.seq;
  }
  if (peer_fin_seen_ && reasm_.expected() >= peer_fin_seq_) {
    send_control(kAck, next_seq_);
    finish_close();
  }
}

}  // namespace kmsg::transport
