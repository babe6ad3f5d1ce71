// The benchmark's fixed workloads.
//
// A workload is a fixed list of replications (config x seed). One *pass*
// runs that list once, closed-loop: a replication starts only when the
// previous one has finished. Every config is built through the public
// ScenarioBuilder and deliberately avoids the APIs the ROADMAP schedules
// for deletion (.shards(), StatsCollector::flows(), ExperimentRunner), so the
// measured program stays the same across those deletions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/builder.hpp"

namespace manet::benchmark {

struct Replication {
  std::string label;  ///< "AODV/seed=3": printed with any failed check
  ScenarioConfig cfg;
};

struct Workload {
  const char* name;
  const char* why;
  /// The pass list for base seed `seed` (seeds seed, seed+1, ...).
  std::vector<Replication> (*pass)(std::uint64_t seed);
};

/// All workloads, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<Workload>& workloads();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Workload* find_workload(const std::string& name);

}  // namespace manet::benchmark
