// manetsim — run MANET experiments from declarative scenario files.
//
//   manetsim run <scenario.json> [--seeds=N] [--threads=N] [--duration=S]
//                [--out-dir=DIR] [--cell=SUBSTR]
//   manetsim validate <scenario.json>...
//   manetsim list-protocols
//
// Every figure, table and ablation of the evaluation is one file under
// scenarios/. `run` expands it (src/scenario/spec.hpp documents the schema)
// into a labeled cell grid, executes it on one SweepRunner pool, prints one
// row per cell and writes <out-dir>/<name>.{json,csv}. Flags override the
// spec, within the spec's own bounds: --seeds in [1, 100000], --threads in
// [0, 4096] (0 = hardware concurrency), --duration in (0, 9e9] seconds.
// --cell keeps only the cells whose label contains SUBSTR. A duration
// override is checked against the scenario contract like the spec itself (a
// fault window or traffic start past the new end of the run is a validation
// error).
//
// Exit codes: 0 success, 1 run/write failure, 2 usage or spec validation
// error (every diagnostic is printed as "file:line: key: message").
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace {

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage: manetsim run <scenario.json> [--seeds=N] [--threads=N] [--duration=S]\n"
               "                    [--out-dir=DIR] [--cell=SUBSTR]\n"
               "       manetsim validate <scenario.json>...\n"
               "       manetsim list-protocols\n");
  return out == stderr ? 2 : 0;
}

/// --key=value flag parsing; returns nullptr when `arg` is not `--key=`.
const char* flag_value(const char* arg, const char* key) {
  const std::size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) != 0 || arg[n] != '=') return nullptr;
  return arg + n + 1;
}

/// Upper bound of --threads (0 = hardware concurrency).
constexpr long kMaxThreads = 4096;

/// A whole decimal number in [min, max].
bool parse_long(const char* s, long min, long max, long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtol(s, &end, 10);
  return end != s && *end == '\0' && errno != ERANGE && out >= min && out <= max;
}

/// A finite number of seconds in (0, kMaxSeconds].
bool parse_seconds(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(out) && out > 0.0 &&
         out <= manet::spec::kMaxSeconds;
}

/// Re-run the scenario contract on cells that `cause` (a `--duration=S`
/// override) changed after the loader validated them. Returns one
/// `cause: cell "LABEL": field: message` line per error; empty when every
/// cell still passes.
std::string check_cells(const std::vector<manet::SweepCell>& cells, const std::string& cause) {
  std::string report;
  for (const manet::SweepCell& cell : cells) {
    for (const manet::ConfigError& e : manet::ScenarioBuilder::from(cell.config).check()) {
      report += cause + ": cell \"" + cell.label + "\": " + e.field + ": " + e.message + "\n";
    }
  }
  return report;
}

int cmd_list_protocols() {
  for (const manet::ProtocolEntry& e : manet::kProtocols) {
    std::printf("%s\n", e.name);
  }
  return 0;
}

int cmd_validate(const std::vector<const char*>& files) {
  bool all_ok = true;
  for (const char* file : files) {
    const manet::spec::ScenarioSpec spec = manet::spec::load_file(file);
    if (spec.ok()) {
      std::printf("%s: OK (%zu cells, seeds=%d)\n", file, spec.cells.size(), spec.seeds);
    } else {
      std::fputs(spec.error_report().c_str(), stderr);
      all_ok = false;
    }
  }
  return all_ok ? 0 : 2;
}

int cmd_run(const char* file, const std::vector<const char*>& flags) {
  long seeds = 0;    // 0: the spec's
  long threads = 0;  // 0: hardware concurrency
  double duration_s = 0.0;  // 0: each cell's own
  std::string duration_arg;
  std::string out_dir;
  std::string cell_filter;
  for (const char* arg : flags) {
    if (const char* v = flag_value(arg, "--seeds")) {
      if (!parse_long(v, 1, manet::spec::kMaxSeeds, seeds)) {
        std::fprintf(stderr, "manetsim: --seeds must be an integer in [1, %d], got \"%s\"\n",
                     manet::spec::kMaxSeeds, v);
        return 2;
      }
    } else if (const char* v = flag_value(arg, "--threads")) {
      if (!parse_long(v, 0, kMaxThreads, threads)) {
        std::fprintf(stderr,
                     "manetsim: --threads must be an integer in [0, %ld] (0 = hw concurrency), "
                     "got \"%s\"\n",
                     kMaxThreads, v);
        return 2;
      }
    } else if (const char* v = flag_value(arg, "--duration")) {
      if (!parse_seconds(v, duration_s)) {
        std::fprintf(stderr, "manetsim: --duration must be seconds in (0, %g], got \"%s\"\n",
                     manet::spec::kMaxSeconds, v);
        return 2;
      }
      duration_arg = arg;
    } else if (const char* v = flag_value(arg, "--out-dir")) {
      out_dir = v;
    } else if (const char* v = flag_value(arg, "--cell")) {
      cell_filter = v;
    } else {
      std::fprintf(stderr, "manetsim: unknown flag \"%s\"\n", arg);
      return usage(stderr);
    }
  }

  manet::spec::ScenarioSpec spec = manet::spec::load_file(file);
  if (!spec.ok()) {
    std::fputs(spec.error_report().c_str(), stderr);
    return 2;
  }
  if (seeds == 0) seeds = spec.seeds;
  if (out_dir.empty()) out_dir = spec.out_dir;

  std::vector<manet::SweepCell> cells;
  for (manet::SweepCell& cell : spec.cells) {
    if (!cell_filter.empty() && cell.label.find(cell_filter) == std::string::npos) continue;
    if (duration_s > 0.0) cell.config.duration = manet::seconds_f(duration_s);
    cells.push_back(std::move(cell));
  }
  if (cells.empty()) {
    std::fprintf(stderr, "manetsim: --cell=%s matches none of the %zu cell labels\n",
                 cell_filter.c_str(), spec.cells.size());
    return 2;
  }
  // A duration override bypassed the loader's validation: re-check the cells.
  if (!duration_arg.empty()) {
    const std::string invalid = check_cells(cells, duration_arg);
    if (!invalid.empty()) {
      std::fputs(invalid.c_str(), stderr);
      return 2;
    }
  }

  if (!spec.description.empty()) std::printf("%s\n", spec.description.c_str());
  const manet::SweepRunner runner(static_cast<int>(seeds), static_cast<unsigned>(threads));
  manet::SweepResult sweep = runner.run(cells);
  sweep.name = spec.name;

  std::printf("%-28s %9s %10s %10s %8s %8s %8s\n", "cell", "pdr", "delay_ms", "kbps", "nrl",
              "nml", "hops");
  for (const manet::SweepCellResult& cell : sweep.cells) {
    const manet::Aggregate& a = cell.aggregate;
    std::printf("%-28s %9.4f %10.3f %10.2f %8.3f %8.3f %8.3f\n", cell.label.c_str(), a.pdr.mean,
                a.delay_ms.mean, a.throughput_kbps.mean, a.nrl.mean, a.nml.mean, a.avg_hops.mean);
  }

  const std::string json_path = out_dir + "/" + spec.name + ".json";
  const std::string csv_path = out_dir + "/" + spec.name + ".csv";
  const bool ok = sweep.write_json(json_path) && sweep.write_csv(csv_path);
  std::printf("\nsweep: %zu cells x %d seeds on %u threads, %llu events\n", sweep.cells.size(),
              sweep.seeds_per_cell, runner.threads(),
              static_cast<unsigned long long>(sweep.total_events));
  if (ok) std::printf("artifacts: %s %s\n", json_path.c_str(), csv_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string_view cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(stdout);
  if (cmd == "list-protocols") return cmd_list_protocols();
  if (cmd == "validate") {
    if (argc < 3) {
      std::fprintf(stderr, "manetsim: validate needs at least one scenario file\n");
      return usage(stderr);
    }
    return cmd_validate({argv + 2, argv + argc});
  }
  if (cmd == "run") {
    if (argc < 3) {
      std::fprintf(stderr, "manetsim: run needs a scenario file\n");
      return usage(stderr);
    }
    return cmd_run(argv[2], {argv + 3, argv + argc});
  }
  std::fprintf(stderr, "manetsim: unknown command \"%s\"\n", argv[1]);
  return usage(stderr);
}
