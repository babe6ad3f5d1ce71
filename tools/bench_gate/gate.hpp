// bench_gate — the continuous-benchmark regression gate.
//
// The simulator's throughput (events/sec) is the multiplier on every figure
// reproduction, so it is guarded like a test: a checked-in baseline
// (BENCH_kernel.json) records what the kernel sustained when the baseline
// was last refreshed, and CI fails when a fresh run regresses past a
// noise-tolerant threshold. The tool understands three input shapes:
//
//   * google-benchmark JSON (micro_kernel --benchmark_format=json):
//     entries come from benchmarks[].{name, items_per_second}
//   * sweep artifacts (SweepResult::to_json(), `manetsim run`'s
//     results/<name>.json): entry <name> from the top-level numbers, and
//     <name>/<cell label> from each cell's profile
//   * its own baseline files (the `record` output): entries[].{name,
//     events_per_sec, wall_s, bytes_per_node}
//
// Comparison policy: events/sec gates (machine-comparable rate of fixed,
// deterministic work); memory-per-node (bytes_per_node, the scale sweep's
// peak-RSS/N metric) gates in the opposite direction — growth past the
// threshold fails — whenever both baseline and fresh entries carry it;
// wall-clock is reported and only gates under --strict-wall, because
// absolute seconds do not transfer across machines.
#pragma once

#include <string>
#include <vector>

namespace manet::gate {

/// One named performance measurement.
struct Entry {
  std::string name;
  double events_per_sec = 0.0;
  double wall_s = 0.0;          ///< 0 = not measured (e.g. google-benchmark inputs)
  double bytes_per_node = 0.0;  ///< peak RSS / N; 0 = not measured, not gated
};

/// Parse `text` (any of the three supported JSON shapes) into entries.
/// Returns false and sets `err` on malformed input or an unrecognized shape.
[[nodiscard]] bool extract_entries(const std::string& text, std::vector<Entry>& out,
                                   std::string& err);

/// Render entries as a baseline file (the shape `check` and `record` read).
[[nodiscard]] std::string to_baseline_json(const std::vector<Entry>& entries);

struct CheckOptions {
  double max_regress = 0.25;  ///< fail when fresh events/sec is >25% below
                              ///< baseline, or bytes_per_node >25% above it
  bool strict_wall = false;   ///< also fail on wall-clock regressions
};

struct CheckResult {
  bool ok = true;
  int compared = 0;
  std::vector<std::string> failures;  ///< human-readable, one per violation
  std::string report;                 ///< full comparison table
};

/// Compare fresh entries against the baseline. Every baseline entry must be
/// present in the fresh set — a silently vanished benchmark would otherwise
/// un-gate itself.
[[nodiscard]] CheckResult check(const std::vector<Entry>& baseline,
                                const std::vector<Entry>& fresh, const CheckOptions& opts);

/// CLI driver (see --help). Exit code: 0 ok, 1 regression/missing entry,
/// 2 usage or I/O error.
int run_cli(int argc, const char* const* argv);

}  // namespace manet::gate
