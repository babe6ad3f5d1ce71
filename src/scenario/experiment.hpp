// Multi-seed experiment execution: metrics, aggregation, environment knobs.
//
// Every figure in the paper family is a sweep: (protocol × parameter value),
// each cell averaged over several random scenarios. The SweepRunner
// (scenario/sweep.hpp) executes a whole grid of cells on one work pool.
//
// Metrics are registered once, in kMetricDefs: each entry names a metric and
// binds the per-run sample (ScenarioResult field) to its aggregate slot
// (Aggregate field). The aggregator and the JSON/CSV emitters all iterate the
// table, so adding a metric is one table line plus the two struct fields.
//
// Environment knobs (parsed and validated in one place, BenchEnv) let benches
// trade fidelity for wall-clock time without code changes:
//   MANET_BENCH_SEEDS        replications per cell    (default per bench)
//   MANET_BENCH_DURATION     simulated seconds        (default from config)
//   MANET_BENCH_THREADS      worker threads           (default hw concurrency)
//   MANET_BENCH_RESULTS_DIR  artifact directory       (default "results")
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace manet {

/// Mean and standard error of one metric over the replications.
struct Metric {
  double mean = 0.0;
  double se = 0.0;
};

/// Sample mean and standard error of the mean. Empty input yields {0, 0};
/// a single sample has se 0.
[[nodiscard]] Metric aggregate_metric(const std::vector<double>& xs);

struct Aggregate {
  Metric pdr;
  Metric delay_ms;
  Metric nrl;
  Metric nml;
  Metric throughput_kbps;
  Metric avg_hops;
  Metric connectivity;  ///< oracle PDR upper bound
  Metric repair_latency_ms;  ///< fault-heal -> next-delivery latency
  std::uint64_t total_events = 0;
  int replications = 0;

  /// Visit every metric as f(name, Metric&) in kMetricDefs order.
  template <typename F>
  void for_each(F&& f);
  template <typename F>
  void for_each(F&& f) const;
};

/// One row of the metric table: the artifact/emitter name, the per-run sample
/// it is computed from, and the aggregate slot it lands in.
struct MetricDef {
  const char* name;
  double ScenarioResult::* sample;
  Metric Aggregate::* agg;
};

/// The metric registry. To add a metric: add a field to ScenarioResult and
/// Aggregate, then one line here — aggregation and all emitters follow.
inline constexpr MetricDef kMetricDefs[] = {
    {"pdr", &ScenarioResult::pdr, &Aggregate::pdr},
    {"delay_ms", &ScenarioResult::delay_ms, &Aggregate::delay_ms},
    {"nrl", &ScenarioResult::nrl, &Aggregate::nrl},
    {"nml", &ScenarioResult::nml, &Aggregate::nml},
    {"throughput_kbps", &ScenarioResult::throughput_kbps, &Aggregate::throughput_kbps},
    {"avg_hops", &ScenarioResult::avg_hops, &Aggregate::avg_hops},
    {"connectivity", &ScenarioResult::connectivity, &Aggregate::connectivity},
    {"repair_latency_ms", &ScenarioResult::repair_latency_ms, &Aggregate::repair_latency_ms},
};

template <typename F>
void Aggregate::for_each(F&& f) {
  for (const MetricDef& d : kMetricDefs) f(d.name, this->*(d.agg));
}

template <typename F>
void Aggregate::for_each(F&& f) const {
  for (const MetricDef& d : kMetricDefs) f(d.name, this->*(d.agg));
}

/// Aggregate the replications of one cell via the metric table.
[[nodiscard]] Aggregate aggregate_results(const std::vector<ScenarioResult>& results);

/// The MANET_BENCH_* environment, parsed and validated in one place.
/// Malformed or out-of-range values (garbage text, negatives, absurd sizes)
/// are rejected with a warning on stderr and the default is kept — so
/// MANET_BENCH_THREADS=-1 can no longer wrap to a huge unsigned.
struct BenchEnv {
  int seeds = 3;                      ///< replications per cell, >= 1
  unsigned threads = 0;               ///< worker threads, 0 = hw concurrency
  long duration_s = 0;                ///< simulated seconds, 0 = per-config
  std::string results_dir = "results";  ///< where JSON/CSV artifacts land

  /// Parse the environment; `default_seeds` seeds when MANET_BENCH_SEEDS is
  /// unset (benches default lower than interactive tools).
  [[nodiscard]] static BenchEnv parse(int default_seeds = 3);

  /// Apply MANET_BENCH_DURATION to a config (no-op when unset).
  void apply_duration(ScenarioConfig& cfg) const;
};

/// Render one metric as "mean ± se" with the given precision.
[[nodiscard]] std::string format_metric(const Metric& m, int precision = 3);

}  // namespace manet
