// Shared machinery for the figure/table benches.
//
// Each bench binary regenerates one table or figure of the evaluation. A
// Suite collects every (protocol, x-value) cell of the figure up front, runs
// the whole grid through SweepRunner on one shared worker pool (sweep-level
// parallelism: wall-clock ~ total_replications / cores), then reports each
// cell as a google-benchmark row — the printed rows are the figure's series,
// with the cell's measured wall-clock as the (manual) time. After the table,
// the suite writes machine-readable artifacts:
//
//   results/<bench>.json   per-cell metrics + per-replication profiling
//   results/<bench>.csv    one row per cell, columns from the metric table
//
// Fidelity/wall-clock knobs come from the environment (parsed by BenchEnv):
//
//   MANET_BENCH_SEEDS        replications per cell (default 2)
//   MANET_BENCH_DURATION     simulated seconds     (default: per-figure config;
//                            a value some cell's contract rejects exits 2)
//   MANET_BENCH_THREADS      worker threads        (default: hw concurrency)
//   MANET_BENCH_RESULTS_DIR  artifact directory    (default: results)
//
// Two extra command-line flags (consumed before google-benchmark sees the
// argument list — gbench aborts on flags it does not know):
//
//   --cell=<substr>          run only cells whose label contains <substr>;
//                            lets CI pin one cheap cell as its bench canary
//   --baseline_out=<path>    also write the sweep in tools/bench_gate
//                            baseline shape ({"schema":1,"entries":[...]})
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/builder.hpp"
#include "scenario/experiment.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace manet::bench {

enum class Metric { kPdr, kDelay, kNrl, kNml, kThroughput, kAll };

/// Report one finished cell as benchmark counters.
inline void report(benchmark::State& state, const SweepCellResult& cell, Metric m) {
  const Aggregate& a = cell.aggregate;
  auto set = [&](const char* name, const manet::Metric& v) {
    state.counters[name] = v.mean;
    state.counters[std::string(name) + "_se"] = v.se;
  };
  switch (m) {
    case Metric::kPdr: set("pdr_pct", {a.pdr.mean * 100.0, a.pdr.se * 100.0}); break;
    case Metric::kDelay: set("delay_ms", a.delay_ms); break;
    case Metric::kNrl: set("nrl", a.nrl); break;
    case Metric::kNml: set("nml", a.nml); break;
    case Metric::kThroughput: set("kbps", a.throughput_kbps); break;
    case Metric::kAll:
      set("pdr_pct", {a.pdr.mean * 100.0, a.pdr.se * 100.0});
      set("delay_ms", a.delay_ms);
      set("nrl", a.nrl);
      set("nml", a.nml);
      set("kbps", a.throughput_kbps);
      state.counters["conn_pct"] = a.connectivity.mean * 100.0;
      break;
  }
  state.counters["seeds"] = a.replications;
  state.counters["ev_per_s"] = cell.events_per_sec;
  if (cell.bytes_per_node > 0.0) state.counters["b_per_node"] = cell.bytes_per_node;
}

/// One bench binary = one Suite: labeled cells accumulated by main(), then
/// executed as a single sweep and rendered as benchmark rows + artifacts.
class Suite {
 public:
  /// `name` keys the artifact files (results/<name>.json / .csv).
  explicit Suite(std::string name, int default_seeds = 2)
      : name_(std::move(name)), default_seeds_(default_seeds) {}

  void add(std::string label, ScenarioConfig cfg, Metric metric = Metric::kAll) {
    cells_.push_back(SweepCell{std::move(label), std::move(cfg)});
    metrics_.push_back(metric);
  }

  /// Register a (protocol × value) sweep. `make_cfg` builds the cell config.
  void add_sweep(const std::vector<Protocol>& protocols, const char* param,
                 const std::vector<double>& values, Metric metric,
                 const std::function<ScenarioConfig(Protocol, double)>& make_cfg) {
    for (const Protocol p : protocols) {
      for (const double v : values) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        add(std::string(to_string(p)) + "/" + param + ":" + buf, make_cfg(p, v), metric);
      }
    }
  }

  /// Run the whole grid on one pool, print the rows, write the artifacts.
  int run(int argc, char** argv, const char* banner) {
    std::printf("%s\n", banner);
    const BenchEnv env = BenchEnv::parse(default_seeds_);
    std::string baseline_out;
    consume_own_flags(argc, argv, baseline_out);
    if (env.duration_s > 0) {
      for (SweepCell& c : cells_) env.apply_duration(c.config);
      const std::string invalid =
          check_cells(cells_, "MANET_BENCH_DURATION=" + std::to_string(env.duration_s));
      if (!invalid.empty()) {
        std::fputs(invalid.c_str(), stderr);
        return 2;
      }
    }

    const SweepRunner runner(env.seeds, env.threads);
    SweepResult sweep = runner.run(cells_);
    sweep.name = name_;

    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
      const SweepCellResult& cell = sweep.cells[i];
      const Metric metric = metrics_[i];
      benchmark::RegisterBenchmark(cell.label.c_str(),
                                   [&cell, metric](benchmark::State& state) {
                                     for (auto _ : state) state.SetIterationTime(cell.wall_s);
                                     report(state, cell, metric);
                                   })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1)
          ->UseManualTime();
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const std::string json_path = env.results_dir + "/" + name_ + ".json";
    const std::string csv_path = env.results_dir + "/" + name_ + ".csv";
    const bool json_ok = sweep.write_json(json_path);
    bool ok = sweep.write_csv(csv_path) && json_ok;
    if (!baseline_out.empty()) {
      std::ofstream out(baseline_out, std::ios::trunc);
      out << sweep.to_baseline_json();
      ok = ok && static_cast<bool>(out);
      if (out) std::printf("baseline: %s\n", baseline_out.c_str());
    }
    std::printf("\nsweep: %zu cells x %d seeds on %u threads in %.2f s (%.0f events/s)\n",
                sweep.cells.size(), sweep.seeds_per_cell, sweep.threads, sweep.wall_s,
                sweep.events_per_sec);
    if (ok) std::printf("artifacts: %s %s\n", json_path.c_str(), csv_path.c_str());
    return ok ? 0 : 1;
  }

 private:
  /// Parse and strip --cell= / --baseline_out= so benchmark::Initialize
  /// (which rejects unknown flags) only sees its own arguments.
  void consume_own_flags(int& argc, char** argv, std::string& baseline_out) {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--cell=", 0) == 0) {
        filter_cells(arg.substr(7));
      } else if (arg.rfind("--baseline_out=", 0) == 0) {
        baseline_out = arg.substr(15);
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
    argv[argc] = nullptr;
  }

  void filter_cells(std::string_view substr) {
    std::vector<SweepCell> cells;
    std::vector<Metric> metrics;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].label.find(substr) != std::string::npos) {
        cells.push_back(std::move(cells_[i]));
        metrics.push_back(metrics_[i]);
      }
    }
    if (cells.empty()) {
      std::fprintf(stderr, "warning: --cell=%.*s matches no cell label; running all\n",
                   static_cast<int>(substr.size()), substr.data());
      return;
    }
    cells_ = std::move(cells);
    metrics_ = std::move(metrics);
  }

  std::string name_;
  int default_seeds_;
  std::vector<SweepCell> cells_;
  std::vector<Metric> metrics_;
};

inline const std::vector<Protocol> kAll = {Protocol::kAodv, Protocol::kDsr, Protocol::kCbrp,
                                           Protocol::kDsdv, Protocol::kOlsr};
/// Boukerche's three (the pause-time / offered-load suites).
inline const std::vector<Protocol> kReactiveTrio = {Protocol::kAodv, Protocol::kDsr,
                                                    Protocol::kCbrp};

// -- canonical cell configs --------------------------------------------------
// All built through ScenarioBuilder so every bench cell is validated before
// the sweep starts (a bad sweep axis fails fast, not three cells in).

/// Mobility suite: Table-I defaults, sweep node max speed (0 = static).
inline ScenarioConfig mobility_cell(Protocol p, double v_max) {
  ScenarioBuilder b;
  b.protocol(p).seed(1);
  if (v_max <= 0.0) {
    b.static_nodes();
  } else {
    b.speed(0.1, v_max);
  }
  return b.build();
}

/// Density suite: sweep node count at moderate mobility.
inline ScenarioConfig density_cell(Protocol p, double nodes) {
  return ScenarioBuilder()
      .protocol(p)
      .seed(1)
      .nodes(static_cast<std::uint32_t>(nodes))
      .speed(0.1, 10.0)
      .build();
}

/// Pause-time suite (Boukerche-style): 40 nodes in 1500 x 300 m, v_max 20,
/// sweep pause time.
inline ScenarioConfig pause_cell(Protocol p, double pause_s) {
  return ScenarioBuilder()
      .protocol(p)
      .seed(1)
      .nodes(40)
      .area(1500.0, 300.0)
      .speed(0.1, 20.0)
      .pause(seconds_f(pause_s))
      .build();
}

/// Offered-load suite: 40 nodes, sweep the number of CBR sources.
inline ScenarioConfig sources_cell(Protocol p, double sources) {
  return ScenarioBuilder()
      .protocol(p)
      .seed(1)
      .nodes(40)
      .area(1500.0, 300.0)
      .speed(0.1, 10.0)
      .connections(static_cast<std::uint32_t>(sources))
      .build();
}

/// Load-collapse suite: offered-load sweep with the reliable transport on.
/// Every CBR source runs closed-loop through ReliableTransport, so raising
/// per-flow rate alone just fills send windows; sweeping the *source count*
/// instead raises aggregate offered load past the MAC's capacity, and
/// goodput collapses under RTO/retransmission pressure (the figure's claim).
inline ScenarioConfig load_cell(Protocol p, double sources) {
  TransportConfig transport;
  transport.enabled = true;
  return ScenarioBuilder()
      .protocol(p)
      .seed(1)
      .nodes(40)
      .area(1500.0, 300.0)
      .speed(0.1, 10.0)
      .connections(static_cast<std::uint32_t>(sources))
      .transport(transport)
      .build();
}

/// Scale suite: the urban Manhattan family at constant density — the city
/// grows with N, so this sweeps metropolitan size, not node density (see
/// urban_scenario() in scenario/builder.hpp).
inline ScenarioConfig urban_cell(Protocol p, double nodes) {
  return urban_scenario(static_cast<std::uint32_t>(nodes)).protocol(p).seed(1).build();
}

/// Fault suite: moderate Table-I-style network, sweep the expected number of
/// crash/restart cycles per node. Slow mobility and a small area keep the
/// fault-free baseline near-perfect, so the PDR delta is attributable to the
/// injected crashes rather than to mobility churn.
inline ScenarioConfig fault_cell(Protocol p, double crash_rate) {
  FaultConfig fault;
  fault.crash_rate = crash_rate;
  fault.downtime_mean = seconds(20);
  fault.window_from = seconds(20);
  return ScenarioBuilder().protocol(p).seed(1).nodes(30).speed(0.1, 5.0).fault(fault).build();
}

}  // namespace manet::bench
