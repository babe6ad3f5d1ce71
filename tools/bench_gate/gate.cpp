#include "gate.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>

#include "common/json.hpp"

namespace manet::gate {

namespace {

// The JSON DOM lives in tools/common/json.* (shared with manet_report and
// the scenario spec loader); this tool only keeps its shape extractors.
using json::Value;

/// google-benchmark --benchmark_format=json: benchmarks[].items_per_second.
/// Aggregate rows (mean/median/stddev under --benchmark_repetitions) are
/// skipped so a baseline recorded without repetitions stays comparable.
bool extract_google_benchmark(const Value& root, std::vector<Entry>& out, std::string& err) {
  const Value* benches = root.find("benchmarks");
  if (benches == nullptr || benches->kind != Value::Kind::kArray) {
    err = "google-benchmark JSON has no 'benchmarks' array";
    return false;
  }
  for (const Value& b : benches->array) {
    const Value* run_type = b.find("run_type");
    if (run_type != nullptr && run_type->str == "aggregate") continue;
    const Value* name = b.find("name");
    const Value* ips = b.find("items_per_second");
    if (name == nullptr || name->kind != Value::Kind::kString) continue;
    if (ips == nullptr || ips->kind != Value::Kind::kNumber) continue;
    Entry e;
    e.name = name->str;
    e.events_per_sec = ips->number;
    out.push_back(std::move(e));
  }
  if (out.empty()) {
    err = "no benchmarks with items_per_second found (benchmarks must call "
          "SetItemsProcessed)";
    return false;
  }
  return true;
}

/// The gate's own shape: {"schema": 1, "entries": [{name, events_per_sec,
/// wall_s}]} — emitted by `record`.
bool extract_baseline(const Value& root, std::vector<Entry>& out, std::string& err) {
  const Value* entries = root.find("entries");
  if (entries == nullptr || entries->kind != Value::Kind::kArray) {
    err = "baseline JSON has no 'entries' array";
    return false;
  }
  for (const Value& v : entries->array) {
    const Value* name = v.find("name");
    if (name == nullptr || name->kind != Value::Kind::kString) {
      err = "baseline entry missing 'name'";
      return false;
    }
    Entry e;
    e.name = name->str;
    if (const Value* eps = v.find("events_per_sec")) e.events_per_sec = eps->num_or(0.0);
    if (const Value* w = v.find("wall_s")) e.wall_s = w->num_or(0.0);
    if (const Value* b = v.find("bytes_per_node")) e.bytes_per_node = b->num_or(0.0);
    out.push_back(std::move(e));
  }
  return true;
}

/// A full SweepResult::to_json() artifact (what `manetsim run` writes):
/// top-level throughput plus each cell's profile, memory per node included.
bool extract_sweep(const Value& root, std::vector<Entry>& out, std::string& err) {
  const Value* name = root.find("name");
  const Value* cells = root.find("cells");
  if (name == nullptr || cells == nullptr || cells->kind != Value::Kind::kArray) {
    err = "sweep JSON missing 'name'/'cells'";
    return false;
  }
  Entry top;
  top.name = name->str;
  if (const Value* eps = root.find("events_per_sec")) top.events_per_sec = eps->num_or(0.0);
  if (const Value* w = root.find("wall_s")) top.wall_s = w->num_or(0.0);
  out.push_back(std::move(top));
  for (const Value& c : cells->array) {
    const Value* label = c.find("label");
    const Value* profile = c.find("profile");
    if (label == nullptr || profile == nullptr) continue;
    Entry e;
    e.name = name->str + "/" + label->str;
    if (const Value* eps = profile->find("events_per_sec")) e.events_per_sec = eps->num_or(0.0);
    if (const Value* w = profile->find("wall_s")) e.wall_s = w->num_or(0.0);
    if (const Value* b = profile->find("bytes_per_node")) e.bytes_per_node = b->num_or(0.0);
    out.push_back(std::move(e));
  }
  return true;
}

[[nodiscard]] std::string format_rate(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fM/s", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fk/s", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f/s", v);
  }
  return buf;
}

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bench_gate record --out <baseline.json> <input.json>...\n"
               "       bench_gate check --baseline <baseline.json> [--max-regress F]\n"
               "                  [--strict-wall] <input.json>...\n"
               "\n"
               "Inputs may be google-benchmark JSON (--benchmark_format=json with\n"
               "SetItemsProcessed), sweep artifacts (SweepResult::to_json), or prior\n"
               "baseline files; entries from all inputs are concatenated.\n"
               "\n"
               "  record        merge inputs into a baseline file\n"
               "  check         fail (exit 1) when any baseline entry regresses its\n"
               "                events/sec by more than --max-regress (default 0.25),\n"
               "                grows its bytes_per_node (peak RSS / N, when both\n"
               "                sides measured it) past the same threshold, or is\n"
               "                missing from the fresh inputs\n"
               "  --strict-wall also gate wall_s (off by default: wall-clock does\n"
               "                not transfer across machines)\n");
}

[[nodiscard]] bool load_inputs(const std::vector<std::string>& paths, std::vector<Entry>& out) {
  for (const std::string& path : paths) {
    std::string text;
    std::string err;
    if (!json::read_file(path, text, err) || !extract_entries(text, out, err)) {
      std::fprintf(stderr, "bench_gate: %s: %s\n", path.c_str(), err.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

bool extract_entries(const std::string& text, std::vector<Entry>& out, std::string& err) {
  Value root;
  if (!json::parse(text, root, err)) return false;
  if (root.kind != Value::Kind::kObject) {
    err = "top-level JSON value is not an object";
    return false;
  }
  if (root.find("benchmarks") != nullptr) return extract_google_benchmark(root, out, err);
  if (root.find("entries") != nullptr) return extract_baseline(root, out, err);
  if (root.find("cells") != nullptr) return extract_sweep(root, out, err);
  err = "unrecognized shape: expected 'benchmarks', 'entries', or 'cells'";
  return false;
}

std::string to_baseline_json(const std::vector<Entry>& entries) {
  std::ostringstream os;
  os.precision(10);
  os << "{\n  \"schema\": 1,\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"";
    json::escape(os, e.name);
    os << "\", \"events_per_sec\": " << e.events_per_sec << ", \"wall_s\": " << e.wall_s;
    if (e.bytes_per_node > 0.0) os << ", \"bytes_per_node\": " << e.bytes_per_node;
    os << '}';
  }
  os << "\n  ]\n}\n";
  return os.str();
}

CheckResult check(const std::vector<Entry>& baseline, const std::vector<Entry>& fresh,
                  const CheckOptions& opts) {
  CheckResult r;
  std::map<std::string, const Entry*> by_name;
  for (const Entry& e : fresh) by_name[e.name] = &e;

  std::ostringstream os;
  os.precision(4);
  for (const Entry& base : baseline) {
    const auto it = by_name.find(base.name);
    if (it == by_name.end()) {
      r.failures.push_back(base.name + ": present in baseline but missing from fresh run");
      os << "MISS  " << base.name << "\n";
      continue;
    }
    const Entry& now = *it->second;
    ++r.compared;

    bool bad = false;
    std::string detail;
    if (base.events_per_sec > 0.0) {
      const double delta = now.events_per_sec / base.events_per_sec - 1.0;
      detail = format_rate(base.events_per_sec) + " -> " + format_rate(now.events_per_sec);
      char pct[32];
      std::snprintf(pct, sizeof pct, " (%+.1f%%)", delta * 100.0);
      detail += pct;
      if (delta < -opts.max_regress) {
        bad = true;
        r.failures.push_back(base.name + ": events/sec regressed " + detail);
      }
    }
    // Memory-per-node gates upward: more bytes per node is the regression.
    // Gated only when both sides measured it, so baselines that predate the
    // metric (and non-scale entries) stay comparable.
    if (base.bytes_per_node > 0.0 && now.bytes_per_node > 0.0) {
      const double delta = now.bytes_per_node / base.bytes_per_node - 1.0;
      char mem[96];
      std::snprintf(mem, sizeof mem, "  %.0f -> %.0f B/node (%+.1f%%)", base.bytes_per_node,
                    now.bytes_per_node, delta * 100.0);
      detail += mem;
      if (delta > opts.max_regress) {
        bad = true;
        r.failures.push_back(base.name + ": bytes/node regressed" + std::string(mem));
      }
    }
    if (opts.strict_wall && base.wall_s > 0.0 && now.wall_s > 0.0) {
      const double delta = now.wall_s / base.wall_s - 1.0;
      if (delta > opts.max_regress) {
        bad = true;
        char buf[96];
        std::snprintf(buf, sizeof buf, ": wall_s regressed %.3fs -> %.3fs (%+.1f%%)",
                      base.wall_s, now.wall_s, delta * 100.0);
        r.failures.push_back(base.name + buf);
      }
    }
    os << (bad ? "FAIL  " : "ok    ") << base.name;
    if (!detail.empty()) os << "  " << detail;
    os << "\n";
  }
  r.ok = r.failures.empty();
  r.report = os.str();
  return r;
}

int run_cli(int argc, const char* const* argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string_view cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") {
    usage(stdout);
    return 0;
  }

  std::string out_path;
  std::string baseline_path;
  CheckOptions opts;
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_gate: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return 2;
      out_path = v;
    } else if (arg == "--baseline") {
      const char* v = next("--baseline");
      if (v == nullptr) return 2;
      baseline_path = v;
    } else if (arg == "--max-regress") {
      const char* v = next("--max-regress");
      if (v == nullptr) return 2;
      char* end = nullptr;
      opts.max_regress = std::strtod(v, &end);
      if (end == v || opts.max_regress < 0.0) {
        std::fprintf(stderr, "bench_gate: bad --max-regress '%s'\n", v);
        return 2;
      }
    } else if (arg == "--strict-wall") {
      opts.strict_wall = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_gate: unknown flag '%s'\n", std::string(arg).c_str());
      usage(stderr);
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "bench_gate: no input files\n");
    return 2;
  }

  if (cmd == "record") {
    if (out_path.empty()) {
      std::fprintf(stderr, "bench_gate: record requires --out\n");
      return 2;
    }
    std::vector<Entry> entries;
    if (!load_inputs(inputs, entries)) return 2;
    const std::filesystem::path p(out_path);
    std::error_code ec;
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream out(p, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "bench_gate: cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << to_baseline_json(entries);
    std::printf("bench_gate: recorded %zu entries to %s\n", entries.size(), out_path.c_str());
    return out ? 0 : 2;
  }

  if (cmd == "check") {
    if (baseline_path.empty()) {
      std::fprintf(stderr, "bench_gate: check requires --baseline\n");
      return 2;
    }
    std::string text;
    std::string err;
    std::vector<Entry> baseline;
    if (!json::read_file(baseline_path, text, err) || !extract_entries(text, baseline, err)) {
      std::fprintf(stderr, "bench_gate: %s: %s\n", baseline_path.c_str(), err.c_str());
      return 2;
    }
    std::vector<Entry> fresh;
    if (!load_inputs(inputs, fresh)) return 2;
    const CheckResult r = check(baseline, fresh, opts);
    std::fputs(r.report.c_str(), stdout);
    if (!r.ok) {
      std::fprintf(stderr, "bench_gate: %zu violation(s) vs %s (threshold %.0f%%):\n",
                   r.failures.size(), baseline_path.c_str(), opts.max_regress * 100.0);
      for (const std::string& f : r.failures) std::fprintf(stderr, "  %s\n", f.c_str());
      return 1;
    }
    std::printf("bench_gate: %d compared, all within %.0f%% of baseline\n", r.compared,
                opts.max_regress * 100.0);
    return 0;
  }

  std::fprintf(stderr, "bench_gate: unknown command '%s'\n", std::string(cmd).c_str());
  usage(stderr);
  return 2;
}

}  // namespace manet::gate
