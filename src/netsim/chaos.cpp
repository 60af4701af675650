#include "netsim/chaos.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.hpp"

namespace kmsg::netsim {

namespace {

std::string group_string(const std::vector<std::vector<HostId>>& groups) {
  std::ostringstream os;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    os << (g == 0 ? "{" : ",{");
    for (std::size_t i = 0; i < groups[g].size(); ++i) {
      os << (i == 0 ? "" : " ") << groups[g][i];
    }
    os << "}";
  }
  return os.str();
}

std::string pair_string(HostId a, HostId b) {
  return std::to_string(a) + "<->" + std::to_string(b);
}

std::string rate_string(double rate) {
  std::ostringstream os;
  os << rate;
  return os.str();
}

}  // namespace

ChaosSchedule::ChaosSchedule(Network& net, std::uint64_t seed)
    : net_(net), rng_(seed) {}

ChaosSchedule& ChaosSchedule::add_all(Duration t, std::string description,
                                      std::uint64_t ChaosStats::* stat,
                                      std::function<void(unsigned)> apply) {
  pending_.push_back(Pending{t, std::move(description), Pending::Scope::kAll,
                             0, 0, std::move(apply), stat});
  return *this;
}

ChaosSchedule& ChaosSchedule::add_pair(Duration t, std::string description,
                                       std::uint64_t ChaosStats::* stat,
                                       HostId a, HostId b,
                                       std::function<void(unsigned)> apply) {
  pending_.push_back(Pending{t, std::move(description), Pending::Scope::kPair,
                             a, b, std::move(apply), stat});
  return *this;
}

void ChaosSchedule::for_pair_on(unsigned shard, HostId a, HostId b,
                                const std::function<void(Link&)>& fn) {
  if (net_.shard_of(a) == shard) {
    if (auto* l = net_.link(a, b)) fn(*l);
  }
  if (a != b && net_.shard_of(b) == shard) {
    if (auto* l = net_.link(b, a)) fn(*l);
  }
}

void ChaosSchedule::for_each_link_on(unsigned shard,
                                     const std::function<void(Link&)>& fn) {
  net_.for_each_link([this, shard, &fn](HostId src, HostId, Link& l) {
    if (net_.shard_of(src) == shard) fn(l);
  });
}

ChaosSchedule& ChaosSchedule::partition_at(
    Duration t, std::vector<std::vector<HostId>> groups) {
  auto desc = "partition " + group_string(groups);
  return add_all(t, std::move(desc), &ChaosStats::partitions,
                 [this, groups = std::move(groups)](unsigned shard) {
                   net_.partition_on(shard, groups);
                 });
}

ChaosSchedule& ChaosSchedule::heal_at(Duration t) {
  return add_all(t, "heal", &ChaosStats::heals,
                 [this](unsigned shard) { net_.heal_on(shard); });
}

ChaosSchedule& ChaosSchedule::loss_all_at(Duration t, double rate) {
  return add_all(t, "loss(*)=" + rate_string(rate), &ChaosStats::rate_changes,
                 [this, rate](unsigned shard) {
                   for_each_link_on(shard, [rate](Link& l) {
                     l.set_random_loss_rate(rate);
                   });
                 });
}

ChaosSchedule& ChaosSchedule::loss_at(Duration t, HostId a, HostId b,
                                      double rate) {
  return add_pair(t, "loss(" + pair_string(a, b) + ")=" + rate_string(rate),
                  &ChaosStats::rate_changes, a, b,
                  [this, a, b, rate](unsigned shard) {
                    for_pair_on(shard, a, b,
                                [rate](Link& l) { l.set_random_loss_rate(rate); });
                  });
}

ChaosSchedule& ChaosSchedule::delay_at(Duration t, HostId a, HostId b,
                                       Duration one_way) {
  return add_pair(t, "delay(" + pair_string(a, b) + ")=" + to_string(one_way),
                  &ChaosStats::delay_changes, a, b,
                  [this, a, b, one_way](unsigned shard) {
                    for_pair_on(shard, a, b, [one_way](Link& l) {
                      l.set_propagation_delay(one_way);
                    });
                  });
}

ChaosSchedule& ChaosSchedule::delay_all_at(Duration t, Duration one_way) {
  return add_all(t, "delay(*)=" + to_string(one_way),
                 &ChaosStats::delay_changes, [this, one_way](unsigned shard) {
                   for_each_link_on(shard, [one_way](Link& l) {
                     l.set_propagation_delay(one_way);
                   });
                 });
}

ChaosSchedule& ChaosSchedule::reorder_at(Duration t, HostId a, HostId b,
                                         double rate, Duration max_extra_delay) {
  return add_pair(t,
                  "reorder(" + pair_string(a, b) + ")=" + rate_string(rate) +
                      "/" + to_string(max_extra_delay),
                  &ChaosStats::rate_changes, a, b,
                  [this, a, b, rate, max_extra_delay](unsigned shard) {
                    for_pair_on(shard, a, b, [rate, max_extra_delay](Link& l) {
                      l.set_reorder(rate, max_extra_delay);
                    });
                  });
}

ChaosSchedule& ChaosSchedule::corrupt_at(Duration t, HostId a, HostId b,
                                         double rate) {
  return add_pair(t, "corrupt(" + pair_string(a, b) + ")=" + rate_string(rate),
                  &ChaosStats::rate_changes, a, b,
                  [this, a, b, rate](unsigned shard) {
                    for_pair_on(shard, a, b,
                                [rate](Link& l) { l.set_corrupt_rate(rate); });
                  });
}

ChaosSchedule& ChaosSchedule::duplicate_at(Duration t, HostId a, HostId b,
                                           double rate) {
  return add_pair(t, "duplicate(" + pair_string(a, b) + ")=" + rate_string(rate),
                  &ChaosStats::rate_changes, a, b,
                  [this, a, b, rate](unsigned shard) {
                    for_pair_on(shard, a, b,
                                [rate](Link& l) { l.set_duplicate_rate(rate); });
                  });
}

ChaosSchedule& ChaosSchedule::block_udp_at(Duration t, HostId a, HostId b,
                                           bool block) {
  return add_pair(t,
                  std::string(block ? "block" : "unblock") + "-udp(" +
                      pair_string(a, b) + ")",
                  &ChaosStats::proto_blocks, a, b,
                  [this, a, b, block](unsigned shard) {
                    for_pair_on(shard, a, b,
                                [block](Link& l) { l.set_block_udp(block); });
                  });
}

ChaosSchedule& ChaosSchedule::block_tcp_at(Duration t, HostId a, HostId b,
                                           bool block) {
  return add_pair(t,
                  std::string(block ? "block" : "unblock") + "-tcp(" +
                      pair_string(a, b) + ")",
                  &ChaosStats::proto_blocks, a, b,
                  [this, a, b, block](unsigned shard) {
                    for_pair_on(shard, a, b,
                                [block](Link& l) { l.set_block_tcp(block); });
                  });
}

ChaosSchedule& ChaosSchedule::link_down_at(Duration t, HostId a, HostId b) {
  return add_pair(t, "down(" + pair_string(a, b) + ")",
                  &ChaosStats::link_flaps, a, b, [this, a, b](unsigned shard) {
                    for_pair_on(shard, a, b, [](Link& l) { l.set_up(false); });
                  });
}

ChaosSchedule& ChaosSchedule::link_up_at(Duration t, HostId a, HostId b) {
  return add_pair(t, "up(" + pair_string(a, b) + ")", &ChaosStats::link_flaps,
                  a, b, [this, a, b](unsigned shard) {
                    for_pair_on(shard, a, b, [](Link& l) { l.set_up(true); });
                  });
}

ChaosSchedule& ChaosSchedule::flap_at(Duration t, HostId a, HostId b,
                                      Duration down_for) {
  link_down_at(t, a, b);
  return link_up_at(t + down_for, a, b);
}

ChaosSchedule& ChaosSchedule::crash_at(Duration t, HostId h) {
  // Broadcast scope: links into h live on their source hosts' shards, so
  // every shard must clear the queues of the links it owns that touch h.
  // Only h's own shard takes the host down (single-writer discipline).
  return add_all(t, "crash(" + std::to_string(h) + ")",
                 &ChaosStats::node_crashes, [this, h](unsigned shard) {
                   net_.for_each_link(
                       [this, h, shard](HostId src, HostId dst, Link& l) {
                         if ((src == h || dst == h) &&
                             net_.shard_of(src) == shard) {
                           l.drop_queued_host_down();
                         }
                       });
                   if (net_.shard_of(h) == shard) net_.host(h).crash();
                 });
}

ChaosSchedule& ChaosSchedule::recover_at(Duration t, HostId h) {
  // Pair scope with a == b: targets exactly the host's own shard.
  return add_pair(t, "recover(" + std::to_string(h) + ")",
                  &ChaosStats::node_recoveries, h, h,
                  [this, h](unsigned shard) {
                    if (net_.shard_of(h) == shard) net_.host(h).recover();
                  });
}

ChaosSchedule& ChaosSchedule::crash_recover_at(Duration t, HostId h,
                                               Duration down_for) {
  crash_at(t, h);
  return recover_at(t + down_for, h);
}

ChaosSchedule& ChaosSchedule::random_flaps(int count, Duration from, Duration to,
                                           Duration down_for) {
  // Collect the distinct unordered linked pairs once, in the order the
  // ascending (src, dst) walk first meets them: at (min, max), or at
  // (max, min) when that is the pair's only direction. The draw order below
  // depends only on (seed, network shape), keeping schedules replayable.
  std::vector<std::pair<HostId, HostId>> pairs;
  net_.for_each_link([this, &pairs](HostId src, HostId dst, Link&) {
    if (src <= dst || net_.link(dst, src) == nullptr) {
      pairs.push_back(std::minmax(src, dst));
    }
  });
  if (pairs.empty() || to <= from) return *this;
  const auto window = static_cast<std::uint64_t>((to - from).as_nanos());
  for (int i = 0; i < count; ++i) {
    const auto& p = pairs[rng_.next_below(pairs.size())];
    const Duration at =
        from + Duration::nanos(static_cast<std::int64_t>(rng_.next_below(window)));
    flap_at(at, p.first, p.second, down_for);
  }
  return *this;
}

void ChaosSchedule::arm() {
  if (armed_) return;
  armed_ = true;
  // Stable application order for simultaneous events: schedule in time order
  // (each simulator breaks ties by scheduling sequence, and arming happens in
  // the same order on every shard, pre-run — so armed closures hold the
  // earliest band-0 keys of their instant in every shard layout).
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Pending& x, const Pending& y) { return x.at < y.at; });
  const TimePoint base = net_.simulator_on(0).now();
  const unsigned k = net_.shard_count();
  std::vector<unsigned> targets;
  for (auto& p : pending_) {
    targets.clear();
    if (p.scope == Pending::Scope::kAll) {
      for (unsigned s = 0; s < k; ++s) targets.push_back(s);
    } else {
      targets.push_back(net_.shard_of(p.a));
      const unsigned sb = net_.shard_of(p.b);
      if (sb != targets.front()) targets.push_back(sb);
      std::sort(targets.begin(), targets.end());
    }
    // The lowest target shard records trace + stats, exactly once per
    // logical event; the rest only mutate their own slice of state.
    const unsigned recorder = targets.front();
    for (const unsigned s : targets) {
      net_.simulator_on(s).schedule_at(
          base + p.at, [this, s, record = (s == recorder),
                        desc = p.description, apply = p.apply, stat = p.stat] {
            apply(s);
            if (record) {
              std::lock_guard<std::mutex> lk(mu_);
              trace_.push_back({net_.simulator_on(s).now(), desc});
              ++(stats_.*stat);
            }
            KMSG_DEBUG("chaos") << "applied on shard " << s << ": " << desc;
          });
    }
  }
  pending_.clear();
}

std::string ChaosSchedule::trace_string() const {
  std::vector<AppliedEvent> ordered;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ordered = trace_;
  }
  // (time, description) order: invariant across shard counts and thread
  // interleavings, unlike raw application order.
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const AppliedEvent& x, const AppliedEvent& y) {
                     if (x.at.as_nanos() != y.at.as_nanos()) {
                       return x.at.as_nanos() < y.at.as_nanos();
                     }
                     return x.description < y.description;
                   });
  std::ostringstream os;
  for (const auto& e : ordered) {
    os << e.at.as_nanos() << " " << e.description << "\n";
  }
  return os.str();
}

}  // namespace kmsg::netsim
