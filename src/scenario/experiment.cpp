#include "scenario/experiment.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace manet {

namespace {

/// Strictly parse env var `name` as a long in [min, max]. Unset/empty keeps
/// the fallback silently; garbage or out-of-range keeps it with a warning.
[[nodiscard]] long env_long_checked(const char* name, long fallback, long min, long max) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed < min || parsed > max) {
    std::fprintf(stderr, "manetsim: ignoring %s=\"%s\" (want integer in [%ld, %ld])\n", name, v,
                 min, max);
    return fallback;
  }
  return parsed;
}

}  // namespace

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

BenchEnv BenchEnv::parse(int default_seeds) {
  BenchEnv env;
  env.seeds =
      static_cast<int>(env_long_checked("MANET_BENCH_SEEDS", default_seeds, 1, 100000));
  env.threads = static_cast<unsigned>(env_long_checked("MANET_BENCH_THREADS", 0, 0, 4096));
  env.duration_s = env_long_checked("MANET_BENCH_DURATION", 0, 0, 1000000);
  if (const char* dir = std::getenv("MANET_BENCH_RESULTS_DIR"); dir != nullptr && *dir != '\0') {
    env.results_dir = dir;
  }
  return env;
}

void BenchEnv::apply_duration(ScenarioConfig& cfg) const {
  if (duration_s > 0) cfg.duration = seconds(duration_s);
}

std::string format_metric(const Metric& m, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << m.mean << " ± " << m.se;
  return os.str();
}

}  // namespace manet
