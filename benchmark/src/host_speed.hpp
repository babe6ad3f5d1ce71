// How fast the host is running right now, from a fixed reference kernel.
//
// The benchmark's host shares its physical cores with other tenants, whose
// load slowed identical replications by up to 2x for minutes at a time, far
// longer than one run. The probe is a small event-loop-shaped kernel (a
// binary heap of 4096 timestamps over a 256 KiB table, with small
// allocations) that lives in the benchmark, not in the simulator, so no
// change to the simulator moves it. Timed before and after each replication,
// it tells how much slower than nominal the host ran during it; the gated
// times are scaled back to a host on which the probe costs kNominalNsPerOp.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace manet::benchmark {

/// The probe's median cost on the baseline machine (benchmark/README.md).
inline constexpr double kNominalNsPerOp = 110.0;

class HostSpeedProbe {
 public:
  HostSpeedProbe();

  /// Run the kernel for a fixed number of operations (about 16 ms on the
  /// baseline machine) and return host nanoseconds per operation.
  [[nodiscard]] double ns_per_op();

 private:
  struct Slot {
    std::uint64_t words[8];  // one cache line
  };
  using Entry = std::pair<std::uint64_t, std::uint32_t>;  // (time, slot)

  std::uint64_t next_random();

  std::vector<Slot> table_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<std::vector<std::uint32_t>> scratch_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t op_ = 0;
};

}  // namespace manet::benchmark
