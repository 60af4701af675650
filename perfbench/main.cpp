// perfbench: end-to-end and per-layer benchmark of the middleware stack.
//
//   perfbench --workload <bulk|rpc|ping_under_bulk|gossip_10k> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Untraced (--trace 0): runs the workload's seeded worlds over and over for
// --seconds of wall time and reports the end-to-end metrics (CPU-time
// medians over every repetition; virtual outcomes as medians over the
// distinct seeds). Every timed run is single-threaded, so its CPU time is
// its wall time less the time it waited for a CPU, which on a shared host
// includes the hypervisor's steal time. Traced (--trace 1): one untraced
// pass, then one traced pass over the same seeds, reporting the per-layer
// metrics and the tracing overhead.
// Every repetition's outcomes and layer counts must equal those of earlier
// repetitions with the same seed. The last stdout line is one JSON object;
// the exit code is non-zero when any correctness gate fails.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

// --- allocation counting (common.allocs_per_msg) -----------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void set_alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}
std::uint64_t allocs_counted() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (key == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (key == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string host_fingerprint() {
  std::ostringstream o;
  o << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
    << std::max(1u, std::thread::hardware_concurrency())
    << ", \"build_type\": \"" << KMSG_BUILD_TYPE << "\", \"optimized\": "
    << (kOptimized ? "true" : "false") << ", \"sanitizer\": \""
    << (kSanitized ? "on" : "none") << "\", \"compiler\": \""
    << json_escape(KMSG_CXX_ID) << "\"}";
  return o.str();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Simulated outcomes and layer counts of two runs of one seed must match
/// exactly. `skip` names a count the traced run is allowed to change.
void check_same(const RepResult& ref, const RepResult& got, const std::string& what,
                std::vector<std::string>& failures, const char* skip = nullptr) {
  bool same = ref.outcomes.size() == got.outcomes.size() && ref.msgs == got.msgs;
  for (std::size_t i = 0; same && i < ref.outcomes.size(); ++i) {
    same = ref.outcomes[i].name == got.outcomes[i].name &&
           ref.outcomes[i].value == got.outcomes[i].value;
  }
  for (const auto& [k, v] : ref.counts) {
    if (skip != nullptr && k == skip) continue;
    if (get(got.counts, k) != v) same = false;
  }
  if (!same) failures.push_back(what);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string host = host_fingerprint();
  const std::string build_type = KMSG_BUILD_TYPE;
  if (!kOptimized || kSanitized || build_type == "Debug" || build_type.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to record numbers from this build %s; "
                 "build with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 host.c_str());
    return 3;
  }

  std::vector<std::uint64_t> seeds;
  for (unsigned i = 0; i < w->seeds; ++i) seeds.push_back(derive_seed(args.seed, 1000 + i));

  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto account = [&](const RepResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.gate_failures.begin(), r.gate_failures.end());
  };

  std::printf("perfbench workload=%s seed=%llu seeds=%zu trace=%d\n", w->name,
              static_cast<unsigned long long>(args.seed), seeds.size(), args.trace ? 1 : 0);
  std::printf("host %s\n", host.c_str());

  // Untraced: the first pass fixes each seed's outcomes; repeats must match.
  Tracer off(false);
  std::vector<RepResult> first;
  std::vector<RepResult> reps;
  const std::int64_t start = wall_ns();
  for (std::size_t k = 0;; ++k) {
    const std::size_t i = k % seeds.size();
    if (k >= seeds.size() &&
        (args.trace || static_cast<double>(wall_ns() - start) / 1e9 >= args.seconds)) {
      break;
    }
    const std::int64_t rep_wall0 = wall_ns();
    const std::int64_t rep_cpu0 = cpu_ns();
    RepResult r = w->run(seeds[i], off);
    // Whole repetition, both clocks: their gap is time spent waiting for a CPU.
    const double rep_wall_s = static_cast<double>(wall_ns() - rep_wall0) / 1e9;
    const double rep_cpu_s = static_cast<double>(cpu_ns() - rep_cpu0) / 1e9;
    account(r);
    if (k < seeds.size()) {
      first.push_back(r);
    } else {
      check_same(first[i], r, "a repeated seed changed its simulated outcomes or counts",
                 failures);
    }
    std::printf("rep seed=%llu setup_s=%.6f run_s=%.6f sim_s=%.3f msgs=%llu "
                "rep_cpu_s=%.6f rep_wall_s=%.6f\n",
                static_cast<unsigned long long>(seeds[i]), r.setup_s, r.run_s, r.sim_s,
                static_cast<unsigned long long>(r.msgs), rep_cpu_s, rep_wall_s);
    reps.push_back(std::move(r));
  }
  const double rss = peak_rss_mib();

  // Simulated outcomes: median over the distinct seeds, each value shown.
  for (std::size_t o = 0; o < first[0].outcomes.size(); ++o) {
    std::vector<double> vals;
    std::string each;
    for (const auto& r : first) {
      if (o < r.outcomes.size()) {
        vals.push_back(r.outcomes[o].value);
        if (!each.empty()) each += ' ';
        each += num(r.outcomes[o].value);
      }
    }
    std::printf("outcome %s %s %s (virtual; per seed: %s)\n",
                first[0].outcomes[o].name.c_str(), num(median(vals)).c_str(),
                first[0].outcomes[o].unit.c_str(), each.c_str());
  }
  if (w->seed_moves_outcomes && seeds.size() > 1) {
    bool varied = false;
    for (const auto& r : first) {
      for (std::size_t o = 0; o < r.outcomes.size(); ++o) {
        if (r.outcomes[o].value != first[0].outcomes[o].value) varied = true;
      }
    }
    if (!varied) failures.push_back(std::string(w->name) + ": the seed does not reach the outcomes");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // CPU figures: each seed's median over its repetitions (robust to
    // machine noise), then pooled over the seeds (the seeds' worlds differ
    // in size, so their sums, not their ratios, are combined).
    std::vector<double> setup;
    double run_s = 0.0, sim_s = 0.0, msgs = 0.0;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      std::vector<double> runs;
      for (std::size_t k = i; k < reps.size(); k += seeds.size()) runs.push_back(reps[k].run_s);
      run_s += median(runs);
      sim_s += first[i].sim_s;
      msgs += static_cast<double>(first[i].msgs);
    }
    for (const auto& r : reps) setup.push_back(r.setup_s);
    metrics = {
        {"setup_s", median(setup), "s"},
        {"cpu_ns_per_msg", ratio(run_s * 1e9, msgs), "ns"},
        {"sim_s_per_cpu_s", ratio(sim_s, run_s), "s/s"},
        {"peak_rss_MiB", rss, "MiB"},
        {"msgs_per_sim_s", ratio(msgs, sim_s), "1/s"},
    };
  } else {
    // Traced pass over the same seeds.
    Tracer tr(true);
    std::vector<RepResult> traced;
    double untraced_cpu = 0.0;
    for (const auto& r : first) untraced_cpu += r.setup_s + r.run_s;
    const std::uint64_t allocs0 = allocs_counted();
    double traced_cpu = 0.0;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      tr.set_seed(seeds[i]);
      RepResult r = w->run(seeds[i], tr);
      account(r);
      // The observer's own activations are simulator events; nothing else
      // may differ.
      check_same(first[i], r, "tracing changed simulated outcomes or layer counts",
                 failures, "sim.events");
      traced_cpu += r.setup_s + r.run_s;
      traced.push_back(std::move(r));
    }
    const double allocs = static_cast<double>(allocs_counted() - allocs0);

    std::map<std::string, double> c, t;
    std::vector<double> unacked;
    double msgs = 0.0;
    for (const auto& r : traced) {
      for (const auto& [k, v] : r.counts) c[k] += v;
      for (const auto& [k, v] : r.traced) t[k] += v;
      unacked.insert(unacked.end(), r.unacked_samples.begin(), r.unacked_samples.end());
      msgs += static_cast<double>(r.msgs);
    }
    const double events = get(c, "sim.events");
    const double run_s = tr.total_s("sim.run");
    const double handler_s = static_cast<double>(tr.handler_ns()) / 1e9;
    const double flows = get(c, "adaptive.flows");
    const double released = get(c, "adaptive.released_tcp") + get(c, "adaptive.released_udt");
    double unacked_p99 = 0.0;
    if (!unacked.empty()) {
      std::sort(unacked.begin(), unacked.end());
      unacked_p99 = unacked[static_cast<std::size_t>(0.99 * static_cast<double>(unacked.size() - 1))];
    }
    metrics = {
        {"sim.events", events, "count"},
        {"sim.events_per_msg", ratio(events, msgs), "ratio"},
        {"sim.wall_ns_per_event", ratio(run_s * 1e9, events), "ns"},
        {"sim.run_s", run_s, "s"},
        {"sim.shard_speedup", ratio(get(t, "sim.shard_speedup"), get(t, "sim.shard_reps")), "x"},
        {"netsim.build_s", tr.total_s("netsim.build"), "s"},
        {"netsim.chaos_arm_s", tr.total_s("netsim.chaos_arm"), "s"},
        {"netsim.datagrams_delivered", get(c, "netsim.datagrams_delivered"), "count"},
        {"netsim.datagrams_per_msg", ratio(get(c, "netsim.datagrams_delivered"), msgs), "ratio"},
        {"netsim.drops_queue_full", get(c, "netsim.drops_queue_full"), "count"},
        {"netsim.drops_policer", get(c, "netsim.drops_policer"), "count"},
        {"netsim.partition_drops", get(c, "netsim.partition_drops"), "count"},
        {"transport.overhead_ratio",
         ratio(get(c, "netsim.bytes_delivered"), get(c, "wire.bytes_sent")), "ratio"},
        {"transport.unacked_bytes_p99", unacked_p99, "bytes"},
        {"wire.frame_bytes_per_msg",
         ratio(get(c, "wire.bytes_sent"), get(c, "messaging.msgs_sent")), "bytes"},
        {"wire.frames_corrupt", get(c, "wire.frames_corrupt"), "count"},
        {"messaging.msgs_sent", get(c, "messaging.msgs_sent"), "count"},
        {"messaging.msgs_dropped", get(c, "messaging.msgs_dropped"), "count"},
        {"messaging.queue_overflow", get(c, "messaging.queue_overflow"), "count"},
        {"messaging.notify_status_sent", get(t, "messaging.notify_status_sent"), "count"},
        {"messaging.notify_status_failed", get(t, "messaging.notify_status_failed"), "count"},
        {"messaging.notify_status_peer_failed",
         get(t, "messaging.notify_status_peer_failed"), "count"},
        {"messaging.notify_status_timed_out",
         get(t, "messaging.notify_status_timed_out"), "count"},
        {"messaging.msgs_per_frame",
         ratio(get(c, "messaging.coalesced_msgs"), get(c, "messaging.coalesced_frames")),
         "ratio"},
        {"messaging.delta_ratio",
         ratio(get(c, "messaging.deltas"),
               get(c, "messaging.deltas") + get(c, "messaging.keyframes")),
         "ratio"},
        {"messaging.sessions_opened", get(c, "messaging.sessions_opened"), "count"},
        {"messaging.session_reconnects", get(c, "messaging.session_reconnects"), "count"},
        {"messaging.heartbeats_sent", get(c, "messaging.heartbeats_sent"), "count"},
        {"kompics.setup_s", tr.total_s("kompics.setup"), "s"},
        {"kompics.handler_ns_per_msg", ratio(handler_s * 1e9, msgs), "ns"},
        {"apps.payload_bytes_generated", get(t, "apps.payload_bytes_generated"), "bytes"},
        {"apps.attempts_per_chunk",
         ratio(get(t, "apps.chunk_attempts"), get(c, "apps.chunks_delivered")), "ratio"},
        {"adaptive.udt_share", ratio(get(c, "adaptive.released_udt"), released), "ratio"},
        {"adaptive.episodes", ratio(get(c, "adaptive.episodes"), flows), "count"},
        {"rl.epsilon_final", ratio(get(c, "rl.epsilon_final"), flows), "ratio"},
        {"rl.target_prob_udt_final", ratio(get(c, "rl.target_prob_udt_final"), flows),
         "ratio"},
        {"common.allocs_per_msg", ratio(allocs, msgs), "ratio"},
        {"stack.other_s", run_s - handler_s, "s"},
        {"trace.overhead", traced_cpu - untraced_cpu, "s"},
    };
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << "{\"workload\": \"" << w->name << "\", \"seed\": " << args.seed
          << ", \"host\": " << host << ", \"spans\": [\n";
      const auto& spans = tr.spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
            << ", \"msg\": " << s.msg << ", \"seed\": " << s.seed << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
      }
      out << "]}\n";
    }
  }

  for (const auto& m : metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }
  std::map<std::string, int> distinct_failures;
  for (const auto& f : failures) ++distinct_failures[f];
  for (const auto& [f, n] : distinct_failures) {
    std::printf("gate FAILED: %s (%d times)\n", f.c_str(), n);
  }
  const bool correct = failures.empty() && failed == 0;
  std::printf("gates %s\n", correct ? "passed" : "FAILED");

  std::ostringstream j;
  j << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
    << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    j << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
      << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  j << "}}";
  std::printf("%s\n", j.str().c_str());
  return correct ? 0 : 1;
}
