#include "harness.hpp"

#include <time.h>

#include <chrono>

#include "common/rng.hpp"

namespace perfbench {

using kmsg::messaging::DeliveryStatus;
using kmsg::messaging::MessageNotifyResp;
using kmsg::messaging::NetworkStatus;

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int Tracer::begin(std::string name, std::uint64_t msg) {
  if (!on_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), wall_ns(), 0, parent, msg, seed_});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = wall_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

double Tracer::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

HandlerTimer::HandlerTimer(Tracer& t, const char* name, std::uint64_t msg)
    : t_(t) {
  if (!t_.on()) return;
  if (t_.keep_msg_span(msg)) span_ = t_.begin(name, msg);
  start_ = wall_ns();
}

HandlerTimer::~HandlerTimer() {
  if (!t_.on()) return;
  t_.add_handler_ns(wall_ns() - start_);
  t_.end(span_);
}

void Observer::setup() {
  net_ = &require<kmsg::messaging::Network>();
  subscribe<MessageNotifyResp>(*net_, [this](const MessageNotifyResp& resp) {
    ++notify_by_status[static_cast<std::size_t>(resp.status)];
  });
  subscribe<NetworkStatus>(*net_, [this](const NetworkStatus& st) {
    for (const auto& s : st.sessions) {
      unacked_bytes.add(static_cast<double>(s.bytes_unacked));
    }
  });
}

std::uint64_t Observer::notifies() const {
  return notify_by_status[0] + notify_by_status[1] + notify_by_status[2] +
         notify_by_status[3];
}

void add_network_stats(RepResult& r,
                       const kmsg::messaging::NetworkComponentStats& s) {
  auto& c = r.counts;
  c["messaging.msgs_sent"] += static_cast<double>(s.msgs_sent);
  c["messaging.msgs_dropped"] += static_cast<double>(s.msgs_dropped);
  c["messaging.queue_overflow"] += static_cast<double>(s.queue_overflow);
  c["messaging.sessions_opened"] += static_cast<double>(s.sessions_opened);
  c["messaging.session_reconnects"] += static_cast<double>(s.session_reconnects);
  c["messaging.heartbeats_sent"] += static_cast<double>(s.heartbeats_sent);
  c["messaging.coalesced_msgs"] += static_cast<double>(s.coalesced_msgs_sent);
  c["messaging.coalesced_frames"] += static_cast<double>(s.coalesced_frames_sent);
  c["messaging.deltas"] += static_cast<double>(s.deltas_sent);
  c["messaging.keyframes"] += static_cast<double>(s.delta_keyframes_sent);
  c["wire.bytes_sent"] += static_cast<double>(s.wire_bytes_sent);
  c["wire.frames_corrupt"] += static_cast<double>(s.frames_corrupt);
}

void add_link_stats(RepResult& r, kmsg::netsim::Network& net) {
  auto& c = r.counts;
  net.for_each_link([&c](kmsg::netsim::HostId, kmsg::netsim::HostId,
                         kmsg::netsim::Link& link) {
    const auto& s = link.stats();
    c["netsim.datagrams_delivered"] += static_cast<double>(s.datagrams_delivered);
    c["netsim.bytes_delivered"] += static_cast<double>(s.bytes_delivered);
    c["netsim.drops_queue_full"] += static_cast<double>(s.drops_queue_full);
    c["netsim.drops_policer"] += static_cast<double>(s.drops_policer);
  });
  c["netsim.partition_drops"] += static_cast<double>(net.partition_drops());
}

void add_observer(RepResult& r, const Observer& o) {
  auto& t = r.traced;
  t["messaging.notify_status_sent"] +=
      static_cast<double>(o.notify_by_status[static_cast<int>(DeliveryStatus::kSent)]);
  t["messaging.notify_status_failed"] +=
      static_cast<double>(o.notify_by_status[static_cast<int>(DeliveryStatus::kFailed)]);
  t["messaging.notify_status_peer_failed"] += static_cast<double>(
      o.notify_by_status[static_cast<int>(DeliveryStatus::kPeerFailed)]);
  t["messaging.notify_status_timed_out"] += static_cast<double>(
      o.notify_by_status[static_cast<int>(DeliveryStatus::kTimedOut)]);
  const auto& xs = o.unacked_bytes.samples();
  r.unacked_samples.insert(r.unacked_samples.end(), xs.begin(), xs.end());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  kmsg::splitmix64(state);
  return kmsg::splitmix64(state);
}

}  // namespace perfbench
