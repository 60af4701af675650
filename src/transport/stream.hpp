// The reliable-stream shell shared by the TCP, UDT and LEDBAT engines, and
// the one listener that accepts them (DESIGN.md §13).
//
// `StreamConnection` is an ordered, reliable byte pipe with backpressure via
// a finite send buffer — the backpressure is load-bearing for the paper's
// Fig. 8, where control messages sharing a TCP connection with bulk data
// queue behind megabytes of buffered stream. It owns the protocol-
// independent lifecycle; engines derive from it through `StreamEngine` and
// keep only their transmission policy, calling its per-datagram helpers
// where their protocol logic puts them.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "netsim/network.hpp"
#include "transport/reassembly.hpp"
#include "wire/buffer.hpp"

namespace kmsg::transport {

/// Payload bytes per data segment, for every stream engine: the path MTU.
inline constexpr std::size_t kStreamMss = netsim::kDefaultMtuPayload;

/// The send buffer of every stream engine: a bounded run of stream bytes
/// addressed by absolute, monotonically growing offset. Bytes are appended
/// at end(), read back at any retained offset for (re)transmission, and
/// released from base() as they are acknowledged.
///
/// It holds the written slices themselves, each pinning its slab until the
/// peer acknowledges its last byte, so a frame handed to write() is never
/// copied on the way in. A segment inside one slice is a view of it; only a
/// segment straddling two slices is copied, once, into a pooled slab.
/// capacity() bounds the bytes held (the paper's send-buffer size, up to
/// 100 MiB for UDT); no storage is reserved for it.
class SendBuffer {
 public:
  explicit SendBuffer(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  /// Absolute offset of the first retained (unacknowledged) byte.
  std::uint64_t base() const { return base_; }
  /// Absolute offset one past the last appended byte.
  std::uint64_t end() const { return end_; }
  std::size_t size() const { return static_cast<std::size_t>(end_ - base_); }
  std::size_t free_space() const { return capacity_ - size(); }
  bool empty() const { return base_ == end_; }

  /// Appends the longest prefix of `data` that fits and returns its length.
  /// An owning slice is kept as is; a borrowed one is copied (to_owned).
  std::size_t write(wire::BufSlice data);

  /// The `len` bytes at absolute offset `at`. Requires [at, at+len) within
  /// [base, end); throws std::out_of_range otherwise.
  wire::BufSlice read_at(std::uint64_t at, std::size_t len) const;

  /// Releases all bytes below absolute offset `to` (clamped to [base, end]).
  void release_until(std::uint64_t to);

 private:
  struct Entry {
    std::uint64_t start;  ///< absolute offset of bytes[0]
    wire::BufSlice bytes;
  };

  std::size_t capacity_;
  /// Contiguous: each entry starts where the previous one ends; the front
  /// one may begin below base_ (partly acknowledged).
  std::deque<Entry> entries_;
  std::uint64_t base_ = 0;
  std::uint64_t end_ = 0;
};

enum class ConnState : std::uint8_t {
  kConnecting,
  kEstablished,
  kClosing,
  kClosed,
};

struct ConnStats {
  std::uint64_t bytes_written = 0;    ///< accepted into the send buffer
  std::uint64_t bytes_sent_wire = 0;  ///< handed to the network (incl. rexmit)
  std::uint64_t bytes_acked = 0;      ///< acknowledged by the peer
  std::uint64_t bytes_delivered = 0;  ///< surrendered to the local receiver
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t timeouts = 0;
  Duration smoothed_rtt = Duration::zero();
};

class StreamConnection
    : public std::enable_shared_from_this<StreamConnection> {
 public:
  using DataFn = std::function<void(std::span<const std::uint8_t>)>;
  using PlainFn = std::function<void()>;

  virtual ~StreamConnection();
  StreamConnection(const StreamConnection&) = delete;
  StreamConnection& operator=(const StreamConnection&) = delete;

  /// Appends a prefix of `data` to the send buffer; returns how many bytes
  /// were accepted (possibly 0 when the buffer is full). Never blocks. An
  /// owning slice is held, not copied, until the peer acknowledges it.
  std::size_t write(wire::BufSlice data);
  /// As above for bytes the caller keeps: the accepted prefix is copied.
  std::size_t write(std::span<const std::uint8_t> data) {
    return write(wire::BufSlice::borrowed(data));
  }
  /// Free space currently available in the send buffer.
  std::size_t writable_bytes() const;
  /// Bytes accepted but not yet acknowledged by the peer (send backlog).
  std::size_t unacked_bytes() const { return send_buf_.size(); }
  ConnState state() const { return state_; }
  const ConnStats& stats() const { return stats_; }

  /// Ordered delivery of received bytes.
  void set_on_data(DataFn fn) { on_data_ = std::move(fn); }
  /// Invoked when a full send buffer regained space.
  void set_on_writable(PlainFn fn) { on_writable_ = std::move(fn); }
  /// Invoked once on transition to kEstablished.
  void set_on_connected(PlainFn fn) { on_connected_ = std::move(fn); }
  /// Invoked once on transition to kClosed (graceful or reset).
  void set_on_closed(PlainFn fn) { on_closed_ = std::move(fn); }

  /// Initiates graceful close after pending data drains.
  void close();
  /// Immediate teardown; unsent data is discarded.
  void abort();

 protected:
  /// How an engine's datagrams look on the wire and how its open retries.
  struct Wire {
    netsim::IpProto proto;
    /// Per-datagram header bytes on top of the payload.
    std::size_t header_bytes;
    /// First retry timeout of the open request; doubles per retry up to
    /// handshake_timeout_cap.
    Duration handshake_timeout;
    Duration handshake_timeout_cap;
    /// Retries before an unanswered open is aborted.
    int handshake_retries;
  };

  StreamConnection(netsim::Host& host, netsim::HostId peer,
                   netsim::Port peer_port, bool passive, Wire wire,
                   std::size_t send_buffer_bytes,
                   std::size_t recv_buffer_bytes);

  // --- Engine hooks ---
  /// Sends this side's handshake datagram: the open request (active side)
  /// or the answer to one (passive side).
  virtual void send_handshake() = 0;
  /// Passive open: answers the request that created this connection.
  virtual void answer_open(const netsim::Datagram& request) = 0;
  /// The listener received another open request for this live connection.
  virtual void on_repeated_open() { send_handshake(); }
  /// Runs on the transition to kEstablished, before on_connected fires.
  virtual void on_established() {}
  /// Moves buffered data toward the peer.
  virtual void transmit() = 0;
  /// close() moved an established connection to kClosing.
  virtual void on_close_requested() = 0;
  /// Sends the datagram that makes the peer tear down (reset / shutdown).
  virtual void send_teardown() = 0;
  /// Cancels the engine's own timers.
  virtual void stop_timers() = 0;
  /// A datagram from the peer: its host, and once the handshake is over its
  /// port, are already checked.
  virtual void on_datagram(const netsim::Datagram& dg) = 0;

  // --- Helpers for the engines ---
  /// Binds an ephemeral local port whose datagrams reach on_datagram.
  void bind_local();
  /// Sends the handshake and retries it until established, aborting after
  /// Wire::handshake_retries unanswered attempts.
  void start_handshake();
  /// Current handshake retry timeout (backed off by every retry).
  Duration handshake_timeout() const { return hs_timeout_; }
  void enter_established();
  /// Graceful close is done on this side: sends the teardown and closes.
  /// No-op unless a close was requested.
  void close_drained();
  void finish_close();

  /// Hands a datagram carrying `payload_bytes` of payload to the network.
  void emit(std::shared_ptr<const netsim::DatagramBody> body,
            std::size_t payload_bytes);
  /// Offers a received segment to reassembly; newly in-order bytes reach
  /// the application. Returns how many bytes were delivered.
  std::size_t deliver(std::uint64_t seq, std::span<const std::uint8_t> payload);
  /// Cumulative ack beyond snd_una: releases the acknowledged bytes from
  /// the send buffer and returns how many sequence numbers it covered.
  std::uint64_t release_acked(std::uint64_t ack);
  /// Fires on_writable when a refused write is waiting for space.
  void notify_writable();
  /// Corruption model: a checksum-escaping bit error flips one payload bit
  /// at a position derived from the segment's sequence number, leaving
  /// detection to the wire-framing CRC. `payload` is replaced by a flipped
  /// copy: the bytes it viewed may be the sender's, held for retransmission.
  static void flip_payload_bit(wire::BufSlice& payload, std::uint64_t seq);

  /// Schedules `(self.*fn)()` after `delay`; the timer holds only a weak
  /// reference, so it fires into nothing once the connection is gone.
  template <class Self>
  sim::EventHandle after(Duration delay, void (Self::*fn)()) {
    return simulator().schedule_after(delay, [weak = weak_from_this(), fn] {
      if (auto c = weak.lock()) (static_cast<Self&>(*c).*fn)();
    });
  }

  sim::Simulator& simulator() { return host_.network_simulator(); }
  bool passive() const { return passive_; }

  netsim::Host& host_;
  const netsim::HostId peer_;
  netsim::Port peer_port_;
  ConnStats stats_;
  SendBuffer send_buf_;
  std::uint64_t snd_una_ = 0;   ///< oldest unacknowledged byte
  std::uint64_t next_seq_ = 0;  ///< next byte to transmit
  ReassemblyBuffer reasm_;

 private:
  friend class StreamListener;
  template <class Conn, class Config>
  friend class StreamEngine;

  void receive(const netsim::Datagram& dg);
  void on_handshake_timeout();

  const Wire wire_;
  const bool passive_;
  netsim::Port local_port_ = 0;
  ConnState state_ = ConnState::kConnecting;
  bool want_writable_ = false;
  sim::EventHandle hs_timer_;
  Duration hs_timeout_;
  int hs_retries_ = 0;
  /// Set by the accepting listener: erases this connection's table entry.
  std::function<void()> release_;

  DataFn on_data_;
  PlainFn on_writable_;
  PlainFn on_connected_;
  PlainFn on_closed_;
};

/// Passive opener for any stream engine. It keeps one entry per accepted
/// connection, keyed by the requester's (host, port): a repeated open
/// request for a connection that is alive and not closed goes to that
/// connection, never to a second one, and the entry is erased when its
/// connection closes or is destroyed. Engines wrap it as `Conn::Listener`
/// for typed accepts.
class StreamListener {
 public:
  using AcceptFn = std::function<void(std::shared_ptr<StreamConnection>)>;
  using IsOpenRequestFn = bool (*)(const netsim::Datagram&);
  /// Creates, binds and answers the passive connection for an open request.
  using AcceptOpenFn =
      std::function<std::shared_ptr<StreamConnection>(const netsim::Datagram&)>;

  StreamListener(netsim::Host& host, netsim::IpProto proto, netsim::Port port,
                 IsOpenRequestFn is_open_request, AcceptOpenFn accept_open,
                 AcceptFn on_accept);
  virtual ~StreamListener();
  StreamListener(const StreamListener&) = delete;
  StreamListener& operator=(const StreamListener&) = delete;

  /// Accepted connections still alive and not closed.
  std::size_t tracked() const { return table_->size(); }

 private:
  using Key = std::pair<netsim::HostId, netsim::Port>;
  using Table = std::map<Key, std::weak_ptr<StreamConnection>>;

  void on_datagram(const netsim::Datagram& dg);

  netsim::Host& host_;
  netsim::IpProto proto_;
  netsim::Port port_;
  IsOpenRequestFn is_open_request_;
  AcceptOpenFn accept_open_;
  AcceptFn on_accept_;
  /// Shared with the accepted connections' release hooks, which may outlive
  /// the listener.
  std::shared_ptr<Table> table_ = std::make_shared<Table>();
};

/// Typed entry points of an engine `Conn` configured by `Config`. `Conn`
/// provides a (host, peer, peer_port, passive, config) constructor, a
/// static `kProto` and a static `is_open_request(const Datagram&)`.
template <class Conn, class Config>
class StreamEngine : public StreamConnection {
 public:
  /// Actively opens a connection to (dst, dst_port). The connection starts
  /// in kConnecting; set_on_connected fires on establishment.
  static std::shared_ptr<Conn> connect(netsim::Host& host, netsim::HostId dst,
                                       netsim::Port dst_port,
                                       Config config = {}) {
    std::shared_ptr<Conn> conn(new Conn(host, dst, dst_port, false, config));
    conn->bind_local();
    conn->start_handshake();
    return conn;
  }

  /// Listener handing accepted connections to the caller as `Conn`.
  class Listener final : public StreamListener {
   public:
    using AcceptFn = std::function<void(std::shared_ptr<Conn>)>;
    Listener(netsim::Host& host, netsim::Port port, Config config,
             AcceptFn on_accept)
        : StreamListener(
              host, Conn::kProto, port, &Conn::is_open_request,
              acceptor(host, config),
              [fn = std::move(on_accept)](std::shared_ptr<StreamConnection> c) {
                if (fn) fn(std::static_pointer_cast<Conn>(std::move(c)));
              }) {}
  };

 protected:
  using StreamConnection::StreamConnection;

 private:
  static StreamListener::AcceptOpenFn acceptor(netsim::Host& host,
                                               Config config) {
    return [&host, config](const netsim::Datagram& request) {
      std::shared_ptr<Conn> conn(
          new Conn(host, request.src, request.src_port, true, config));
      conn->bind_local();
      conn->answer_open(request);
      return std::shared_ptr<StreamConnection>(std::move(conn));
    };
  }
};

}  // namespace kmsg::transport
