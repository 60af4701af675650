#include "transport/stream.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "wire/bytebuf.hpp"

namespace kmsg::transport {

SendBuffer::SendBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("SendBuffer capacity must be > 0");
}

std::size_t SendBuffer::write(wire::BufSlice data) {
  const std::size_t n = std::min(data.size(), free_space());
  if (n == 0) return 0;
  if (n < data.size()) data = data.slice(0, n);
  entries_.push_back(Entry{end_, data.to_owned()});
  end_ += n;
  return n;
}

wire::BufSlice SendBuffer::read_at(std::uint64_t at, std::size_t len) const {
  if (at < base_ || at + len > end_) {
    throw std::out_of_range("SendBuffer::read_at outside retained range");
  }
  if (len == 0) return {};
  // The last entry starting at or below `at` holds its first byte.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), at,
      [](std::uint64_t a, const Entry& e) { return a < e.start; });
  --it;
  auto offset = static_cast<std::size_t>(at - it->start);
  if (offset + len <= it->bytes.size()) return it->bytes.slice(offset, len);
  // Straddles an entry boundary: gather the pieces into one fresh slab.
  wire::ByteBuf out{len};
  std::uint8_t* dst = out.write_span(len).data();
  for (std::size_t copied = 0; copied < len; ++it, offset = 0) {
    const std::size_t n = std::min(len - copied, it->bytes.size() - offset);
    std::memcpy(dst + copied, it->bytes.data() + offset, n);
    copied += n;
  }
  wire::SlabPool::instance().count_payload_copy(len);
  return std::move(out).take_slice();
}

void SendBuffer::release_until(std::uint64_t to) {
  base_ = std::clamp(to, base_, end_);
  while (!entries_.empty() &&
         entries_.front().start + entries_.front().bytes.size() <= base_) {
    entries_.pop_front();
  }
}

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

std::size_t StreamConnection::write(wire::BufSlice data) {
  if (state_ == ConnState::kClosed || state_ == ConnState::kClosing) return 0;
  const std::size_t want = data.size();
  const std::size_t n = send_buf_.write(std::move(data));
  stats_.bytes_written += n;
  if (n < want) want_writable_ = true;
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

void StreamConnection::flip_payload_bit(wire::BufSlice& payload,
                                        std::uint64_t seq) {
  wire::ByteBuf copy{payload.size()};
  const auto bytes = copy.write_span(payload.size());
  std::memcpy(bytes.data(), payload.data(), bytes.size());
  wire::SlabPool::instance().count_payload_copy(bytes.size());
  bytes[static_cast<std::size_t>(seq) % bytes.size()] ^=
      static_cast<std::uint8_t>(1u << (seq % 8));
  payload = std::move(copy).take_slice();
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
