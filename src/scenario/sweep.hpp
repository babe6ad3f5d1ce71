// Sweep-level parallel experiment execution.
//
// A figure is a grid of (cell × seed) replications. The old model
// parallelized only the seeds inside one cell — a 16-core machine idled
// while a figure walked its cells sequentially, re-spawning a pool per cell.
// SweepRunner makes the *sweep* the unit of execution: it expands the whole
// grid into independent work items up front and drains them on one shared
// pool of workers pulling from a single atomic cursor, so wall-clock is
// ~ total_replications / cores instead of num_cells × slowest_seed.
//
// Results are structured, not just printed: SweepResult carries each cell's
// Aggregate plus per-replication profiling (wall-clock, simulated-seconds
// per wall-second, events/sec, peak event-queue depth), with JSON and CSV
// emitters so every run leaves a machine-diffable artifact. tools/bench_gate
// reads the JSON artifact directly (events/sec and bytes_per_node per cell).
//
// Determinism: replication (cell c, rep k) always runs config
// cells[c].config with seed base+k, whatever the thread count — results are
// stored by work-item index, so the SweepResult is bit-identical under 1 or
// N workers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/scenario.hpp"

namespace manet {

/// One labeled point of the experiment grid.
struct SweepCell {
  std::string label;
  ScenarioConfig config;
};

/// Wall-clock profile of a single replication.
struct RunProfile {
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  double sim_rate = 0.0;        ///< simulated seconds per wall-clock second
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  std::size_t peak_queue_depth = 0;
  /// Process peak RSS sampled right after this replication finished. A
  /// process-wide high-water mark: meaningful for memory gating when the
  /// sweep runs single-threaded, seed-by-seed (the bench_gate recipe); an
  /// upper bound otherwise.
  std::uint64_t peak_rss_bytes = 0;
  /// Reliable-transport accounting, empty/0 when transport is disabled so
  /// transport-free artifacts stay byte-identical to pre-transport ones.
  std::uint64_t retransmissions = 0;
  std::vector<std::pair<std::uint32_t, FlowRecord>> flows;
};

/// One cell of the finished sweep: aggregate metrics + profiling.
struct SweepCellResult {
  std::string label;
  Aggregate aggregate;
  std::vector<RunProfile> runs;    ///< per replication, seed order
  double wall_s = 0.0;             ///< summed replication wall-clock (CPU cost)
  double events_per_sec = 0.0;     ///< cell events / cell wall_s
  std::size_t peak_queue_depth = 0;  ///< max over replications
  std::uint64_t peak_rss_bytes = 0;  ///< max over replications
  /// peak_rss_bytes / num_nodes — the scale sweep's memory-per-node metric,
  /// gated by tools/bench_gate alongside events_per_sec.
  double bytes_per_node = 0.0;
};

struct SweepResult {
  std::string name;  ///< artifact name (the scenario's), set by the caller
  std::vector<SweepCellResult> cells;
  int seeds_per_cell = 0;
  unsigned threads = 0;
  double wall_s = 0.0;             ///< whole-sweep wall-clock
  std::uint64_t total_events = 0;
  double events_per_sec = 0.0;     ///< pool throughput: total_events / wall_s
  std::size_t peak_queue_depth = 0;
  std::uint64_t peak_rss_bytes = 0;  ///< max over all replications

  /// Cell lookup by label; nullptr when absent.
  [[nodiscard]] const SweepCellResult* find(std::string_view label) const;

  /// Machine-readable emitters. Metric columns come from kMetricDefs, so
  /// new metrics appear automatically.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_csv() const;

  /// Write an emitter's output to `path`, creating parent directories.
  /// Returns false (with a stderr warning) on I/O failure.
  bool write_json(const std::string& path) const;
  bool write_csv(const std::string& path) const;
};

/// Process-wide peak resident set size in bytes (0 where unsupported).
[[nodiscard]] std::uint64_t process_peak_rss_bytes();

/// Executes a whole experiment grid on one shared worker pool.
class SweepRunner {
 public:
  /// `seeds`: replications per cell; `threads`: 0 = hardware concurrency.
  explicit SweepRunner(int seeds = 3, unsigned threads = 0);

  /// Run every (cell × seed) replication and aggregate per cell.
  [[nodiscard]] SweepResult run(const std::vector<SweepCell>& cells) const;

  [[nodiscard]] int seeds() const { return seeds_; }
  [[nodiscard]] unsigned threads() const { return threads_; }

 private:
  int seeds_;
  unsigned threads_;
};

}  // namespace manet
