#include "transport/stream.hpp"

#include <algorithm>

namespace kmsg::transport {

StreamConnection::StreamConnection(netsim::Host& host, netsim::HostId peer,
                                   netsim::Port peer_port, bool passive,
                                   Wire wire, std::size_t send_buffer_bytes,
                                   std::size_t recv_buffer_bytes)
    : host_(host),
      peer_(peer),
      peer_port_(peer_port),
      send_buf_(send_buffer_bytes),
      reasm_(recv_buffer_bytes),
      wire_(wire),
      passive_(passive),
      hs_timeout_(wire.handshake_timeout) {}

StreamConnection::~StreamConnection() {
  hs_timer_.cancel();
  if (release_) release_();
  if (local_port_ != 0) host_.unbind(wire_.proto, local_port_);
}

void StreamConnection::bind_local() {
  local_port_ = host_.bind_ephemeral(
      wire_.proto, [weak = weak_from_this()](const netsim::Datagram& dg) {
        if (auto c = weak.lock()) c->receive(dg);
      });
}

void StreamConnection::receive(const netsim::Datagram& dg) {
  if (dg.src != peer_) return;
  // Once the handshake is over the peer's port is known; a datagram from
  // another port belongs to some other connection between the same hosts.
  if (state_ != ConnState::kConnecting && dg.src_port != peer_port_) return;
  on_datagram(dg);
}

void StreamConnection::start_handshake() {
  send_handshake();
  hs_timer_ = after(hs_timeout_, &StreamConnection::on_handshake_timeout);
}

void StreamConnection::on_handshake_timeout() {
  if (state_ != ConnState::kConnecting) return;
  if (++hs_retries_ > wire_.handshake_retries) {
    abort();
    return;
  }
  hs_timeout_ = std::min(hs_timeout_ * 2, wire_.handshake_timeout_cap);
  start_handshake();
}

void StreamConnection::enter_established() {
  if (state_ != ConnState::kConnecting) return;
  state_ = ConnState::kEstablished;
  hs_timer_.cancel();
  on_established();
  if (on_connected_) on_connected_();
  transmit();
}

std::size_t StreamConnection::write(std::span<const std::uint8_t> data) {
  if (state_ == ConnState::kClosed || state_ == ConnState::kClosing) return 0;
  const std::size_t n = send_buf_.write(data);
  stats_.bytes_written += n;
  if (n < data.size()) want_writable_ = true;
  if (state_ == ConnState::kEstablished) transmit();
  return n;
}

std::size_t StreamConnection::writable_bytes() const {
  if (state_ == ConnState::kClosed || state_ == ConnState::kClosing) return 0;
  return send_buf_.free_space();
}

void StreamConnection::close() {
  if (state_ == ConnState::kClosed || state_ == ConnState::kClosing) return;
  if (state_ == ConnState::kConnecting) {
    abort();
    return;
  }
  state_ = ConnState::kClosing;
  on_close_requested();
}

void StreamConnection::abort() {
  if (state_ == ConnState::kClosed) return;
  send_teardown();
  finish_close();
}

void StreamConnection::close_drained() {
  if (state_ == ConnState::kClosing) abort();
}

void StreamConnection::finish_close() {
  if (state_ == ConnState::kClosed) return;
  state_ = ConnState::kClosed;
  stop_timers();
  hs_timer_.cancel();
  if (auto release = std::exchange(release_, nullptr)) release();
  // Local copy: the callback may drop external references to us; it must
  // still not destroy the connection synchronously (defer to an event).
  auto cb = on_closed_;
  if (cb) cb();
}

void StreamConnection::emit(std::shared_ptr<const netsim::DatagramBody> body,
                            std::size_t payload_bytes) {
  netsim::Datagram dg;
  dg.dst = peer_;
  dg.src_port = local_port_;
  dg.dst_port = peer_port_;
  dg.proto = wire_.proto;
  dg.wire_bytes = payload_bytes + wire_.header_bytes;
  dg.body = std::move(body);
  host_.send(std::move(dg));
}

std::size_t StreamConnection::deliver(std::uint64_t seq,
                                      std::span<const std::uint8_t> payload) {
  // In-order segments reach the application as spans of the segment's own
  // payload — no reassembly copy on the common path.
  std::size_t delivered = 0;
  reasm_.offer_span(seq, payload, [&](std::span<const std::uint8_t> run) {
    stats_.bytes_delivered += run.size();
    delivered += run.size();
    if (on_data_) on_data_(run);
  });
  return delivered;
}

std::uint64_t StreamConnection::release_acked(std::uint64_t ack) {
  const std::uint64_t covered = ack - snd_una_;
  // Sequence numbers beyond the buffer (a FIN) carry no bytes.
  const std::uint64_t de = std::min<std::uint64_t>(ack, send_buf_.end());
  const std::uint64_t ds = std::min<std::uint64_t>(snd_una_, send_buf_.end());
  stats_.bytes_acked += de - ds;
  snd_una_ = ack;
  // A late ACK for data sent before a go-back-N rewind can overtake the
  // transmit pointer; clamp or the inflight computation wraps negative.
  if (next_seq_ < snd_una_) next_seq_ = snd_una_;
  send_buf_.release_until(de);
  return covered;
}

void StreamConnection::notify_writable() {
  if (want_writable_ && send_buf_.free_space() > 0) {
    want_writable_ = false;
    if (on_writable_) on_writable_();
  }
}

void StreamConnection::flip_payload_bit(std::vector<std::uint8_t>& payload,
                                        std::uint64_t seq) {
  const std::size_t at = static_cast<std::size_t>(seq) % payload.size();
  payload[at] ^= static_cast<std::uint8_t>(1u << (seq % 8));
}

StreamListener::StreamListener(netsim::Host& host, netsim::IpProto proto,
                               netsim::Port port,
                               IsOpenRequestFn is_open_request,
                               AcceptOpenFn accept_open, AcceptFn on_accept)
    : host_(host),
      proto_(proto),
      port_(port),
      is_open_request_(is_open_request),
      accept_open_(std::move(accept_open)),
      on_accept_(std::move(on_accept)) {
  host_.bind(proto_, port_,
             [this](const netsim::Datagram& dg) { on_datagram(dg); });
}

StreamListener::~StreamListener() { host_.unbind(proto_, port_); }

void StreamListener::on_datagram(const netsim::Datagram& dg) {
  if (!is_open_request_(dg)) return;
  const Key key{dg.src, dg.src_port};
  if (auto it = table_->find(key); it != table_->end()) {
    // The entry is erased when its connection closes or dies, so a hit is a
    // live connection: a retransmitted or late request, answered by it.
    if (auto existing = it->second.lock()) {
      existing->on_repeated_open();
      return;
    }
    table_->erase(it);
  }
  auto conn = accept_open_(dg);
  (*table_)[key] = conn;
  conn->release_ = [table = std::weak_ptr<Table>(table_), key,
                    raw = conn.get()] {
    auto t = table.lock();
    if (!t) return;
    auto it = t->find(key);
    if (it == t->end()) return;
    // From the destructor the entry no longer locks; from finish_close it
    // must still be this connection's.
    auto live = it->second.lock();
    if (!live || live.get() == raw) t->erase(it);
  };
  if (on_accept_) on_accept_(std::move(conn));
}

}  // namespace kmsg::transport
