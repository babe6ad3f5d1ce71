#include "scenario/experiment.hpp"

#include <cmath>

namespace manet {

Metric aggregate_metric(const std::vector<double>& xs) {
  Metric m;
  if (xs.empty()) return m;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  m.mean = sum / static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double ss = 0.0;
    for (const double x : xs) ss += (x - m.mean) * (x - m.mean);
    const double var = ss / static_cast<double>(xs.size() - 1);
    m.se = std::sqrt(var / static_cast<double>(xs.size()));
  }
  return m;
}

Aggregate aggregate_results(const std::vector<ScenarioResult>& results) {
  Aggregate agg;
  std::vector<double> xs(results.size());
  for (const MetricDef& d : kMetricDefs) {
    for (std::size_t i = 0; i < results.size(); ++i) xs[i] = results[i].*(d.sample);
    agg.*(d.agg) = aggregate_metric(xs);
  }
  for (const ScenarioResult& r : results) agg.total_events += r.events;
  agg.replications = static_cast<int>(results.size());
  return agg;
}

}  // namespace manet
