// Shared pieces of the end-to-end benchmark: the clocks, the span tracer,
// the passive Network-port observer, per-repetition results, and the helpers
// that fold each layer's public stats structs into layer counts.
//
// Everything here sits outside the middleware: spans wrap the calls the
// benchmark itself makes into each layer (set-up phases, run_until, its own
// component handlers), and counts come from the layers' public stats.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "kompics/system.hpp"
#include "messaging/network_component.hpp"
#include "netsim/network.hpp"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t wall_ns();
/// CPU time of the whole process in nanoseconds. It leaves out the time the
/// process waited for a CPU, which includes a hypervisor's steal time.
std::int64_t cpu_ns();

/// Allocation counting, backed by the operator new defined in main.cpp.
/// Counts only while enabled (traced runs), on every thread.
void set_alloc_counting(bool on);
std::uint64_t allocs_counted();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index into the same span list, -1 = root
  std::uint64_t msg = 0;    ///< shared id of the message it handled, 0 = none
  std::uint64_t seed = 0;   ///< the repetition's seed
};

/// In-memory span recorder. A disabled tracer records nothing and costs one
/// branch per call site.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  /// Opens a span; its parent is the innermost open span. Returns its index
  /// (-1 when disabled).
  int begin(std::string name, std::uint64_t msg = 0);
  void end(int span);

  /// Wall time spent inside benchmark-owned component handlers.
  void add_handler_ns(std::int64_t ns) { handler_ns_ += ns; }
  std::int64_t handler_ns() const { return handler_ns_; }
  /// Per-message handler spans are kept for the first few message ids of
  /// each repetition only, so a traced run stays small.
  bool keep_msg_span(std::uint64_t msg) const { return on_ && msg <= kMsgSpans; }

  /// Summed duration of every span called `name`, in seconds.
  double total_s(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr std::uint64_t kMsgSpans = 64;
  bool on_;
  std::uint64_t seed_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t handler_ns_ = 0;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::uint64_t msg = 0)
      : t_(t), id_(t.begin(std::move(name), msg)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Times one handler invocation of a benchmark-owned component; records a
/// span for sampled message ids. Does nothing in untraced runs.
class HandlerTimer {
 public:
  HandlerTimer(Tracer& t, const char* name, std::uint64_t msg);
  ~HandlerTimer();
  HandlerTimer(const HandlerTimer&) = delete;
  HandlerTimer& operator=(const HandlerTimer&) = delete;

 private:
  Tracer& t_;
  std::int64_t start_ = 0;
  int span_ = -1;
};

/// Passive component on a NetworkComponent's provided Network port.
/// Indications fan out to every connected channel, so it sees every
/// delivery notification and session-status sample without sitting on the
/// request path.
class Observer final : public kmsg::kompics::ComponentDefinition {
 public:
  void setup() override;
  kmsg::kompics::PortInstance& network() { return *net_; }

  std::uint64_t notify_by_status[4] = {0, 0, 0, 0};
  std::uint64_t notifies() const;
  kmsg::SampleSet unacked_bytes;

 private:
  kmsg::kompics::PortInstance* net_ = nullptr;
};

/// A named value with its unit: a simulated outcome or a reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result of one repetition (one seed) of a workload.
struct RepResult {
  double setup_s = 0.0;   ///< CPU: world build before the first event
  double run_s = 0.0;     ///< CPU: inside the run calls
  double sim_s = 0.0;     ///< simulated seconds advanced
  std::uint64_t msgs = 0; ///< delivered application messages
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  /// Virtual end-to-end outcomes of this workload, deterministic for a seed.
  std::vector<Metric> outcomes;
  /// Layer counts from public stats structs; deterministic for a seed.
  std::map<std::string, double> counts;
  /// Traced runs only: span totals and observer counts.
  std::map<std::string, double> traced;
  /// Traced runs only: bytes_unacked of every observed session sample.
  std::vector<double> unacked_samples;

  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  void outcome(std::string name, std::string unit, double value) {
    outcomes.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Adds one NetworkComponent's counters to the messaging/wire counts.
void add_network_stats(RepResult& r, const kmsg::messaging::NetworkComponentStats& s);
/// Adds every link's counters plus the partition drops to the netsim counts.
void add_link_stats(RepResult& r, kmsg::netsim::Network& net);
/// Adds an observer's notification counts and session samples (traced).
void add_observer(RepResult& r, const Observer& o);

/// A splitmix64 derivation: independent seeds for each random source.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

}  // namespace perfbench
