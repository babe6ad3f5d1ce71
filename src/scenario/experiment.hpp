// Multi-seed experiment metrics and their aggregation.
//
// Every figure in the paper family is a sweep: (protocol × parameter value),
// each cell averaged over several random scenarios. The SweepRunner
// (scenario/sweep.hpp) executes a whole grid of cells on one work pool.
//
// Metrics are registered once, in kMetricDefs: each entry names a metric and
// binds the per-run sample (ScenarioResult field) to its aggregate slot
// (Aggregate field). The aggregator and the JSON/CSV emitters all iterate the
// table, so adding a metric is one table line plus the two struct fields.
#pragma once

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

}  // namespace manet
