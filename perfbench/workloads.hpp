// The four benchmark workloads. Each runs one repetition for one seed
// through the full stack and returns its CPU times, simulated outcomes,
// layer counts and correctness gates.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  /// Distinct seeds per run: the run's virtual outcomes are medians over
  /// this many worlds, each seeded from the run's --seed.
  unsigned seeds;
  /// The outcomes must differ between seeds (the seed reaches the learner).
  bool seed_moves_outcomes;
  RepResult (*run)(std::uint64_t seed, Tracer& tracer);
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

}  // namespace perfbench
