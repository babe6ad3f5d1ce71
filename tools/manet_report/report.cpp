#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

namespace manet::report {

namespace {

using json::Value;

/// cells[] of a sweep artifact, or nullptr + a problem entry.
const Value* cells_of(const Value& root, const char* which, std::vector<std::string>& problems) {
  if (!root.is_object()) {
    problems.emplace_back(std::string(which) + ": top level is not an object");
    return nullptr;
  }
  const Value* cells = root.find("cells");
  if (cells == nullptr || !cells->is_array()) {
    problems.emplace_back(std::string(which) + ": no \"cells\" array (not a sweep artifact?)");
    return nullptr;
  }
  return cells;
}

const Value* find_cell(const Value& cells, const std::string& label) {
  for (const Value& c : cells.array) {
    const Value* l = c.find("label");
    if (l != nullptr && l->is_string() && l->str == label) return &c;
  }
  return nullptr;
}

/// Relative drift of `cur` against `base` (absolute when base == 0).
/// Exact comparisons are the point here: metrics are pure functions of
/// (scenario, seed), so the tolerance-0 gate must treat any bit-level
/// difference as drift rather than round it away.
double drift_of(double base, double cur) {
  const double d = std::abs(cur - base);
  if (d == 0.0) return 0.0;  // manet-lint: allow-float-eq - tolerance-0 gate is deliberately exact
  return base != 0.0  // manet-lint: allow-float-eq - division guard, not a tolerance check
             ? d / std::abs(base)
             : std::numeric_limits<double>::infinity();
}

std::string fmt_delta(double base, double cur) {
  if (cur == base) return "=";
  if (base == 0.0) return "n/a (baseline 0)";  // manet-lint: allow-float-eq - division guard
  char buf[48];
  std::snprintf(buf, sizeof buf, "%+.4g%%", (cur - base) / base * 100.0);
  return buf;
}

}  // namespace

Result compare(const Value& baseline, const Value& current, const Options& opt) {
  Result r;
  const Value* bcells = cells_of(baseline, "baseline", r.problems);
  const Value* ccells = cells_of(current, "current", r.problems);
  if (bcells == nullptr || ccells == nullptr) return r;

  const Value* bseeds = baseline.find("seeds_per_cell");
  const Value* cseeds = current.find("seeds_per_cell");
  if (bseeds != nullptr && cseeds != nullptr && bseeds->is_number() && cseeds->is_number() &&
      bseeds->number != cseeds->number) {
    std::ostringstream os;
    os << "seeds_per_cell differs: baseline " << bseeds->number << ", current "
       << cseeds->number << " (runs are not comparable)";
    r.problems.push_back(os.str());
  }

  for (const Value& bcell : bcells->array) {
    const Value* label = bcell.find("label");
    if (label == nullptr || !label->is_string()) {
      r.problems.emplace_back("baseline: cell without a string \"label\"");
      continue;
    }
    const Value* ccell = find_cell(*ccells, label->str);
    if (ccell == nullptr) {
      r.problems.push_back("cell \"" + label->str + "\" is in the baseline but not the current run");
      continue;
    }
    const Value* bm = bcell.find("metrics");
    const Value* cm = ccell->find("metrics");
    if (bm == nullptr || !bm->is_object() || cm == nullptr || !cm->is_object()) {
      r.problems.push_back("cell \"" + label->str + "\": missing \"metrics\" object");
      continue;
    }
    for (const auto& [mname, mval] : bm->object) {
      const Value* bmean = mval.find("mean");
      const Value* cmetric = cm->find(mname);
      const Value* cmean = cmetric != nullptr ? cmetric->find("mean") : nullptr;
      if (bmean == nullptr || !bmean->is_number()) {
        r.problems.push_back("cell \"" + label->str + "\": baseline metric \"" + mname +
                             "\" has no numeric mean");
        continue;
      }
      if (cmean == nullptr || !cmean->is_number()) {
        r.problems.push_back("cell \"" + label->str + "\": metric \"" + mname +
                             "\" is in the baseline but not the current run");
        continue;
      }
      Row row;
      row.cell = label->str;
      row.metric = mname;
      row.baseline = bmean->number;
      row.current = cmean->number;
      row.drifted = drift_of(row.baseline, row.current) > opt.tolerance;
      if (row.drifted) ++r.drifted;
      r.rows.push_back(std::move(row));
    }
    // Metrics only the current run carries are a shape change too.
    for (const auto& [mname, mval] : cm->object) {
      (void)mval;
      if (bm->find(mname) == nullptr) {
        r.problems.push_back("cell \"" + label->str + "\": metric \"" + mname +
                             "\" is in the current run but not the baseline");
      }
    }
  }
  for (const Value& ccell : ccells->array) {
    const Value* label = ccell.find("label");
    if (label != nullptr && label->is_string() && find_cell(*bcells, label->str) == nullptr) {
      r.problems.push_back("cell \"" + label->str + "\" is in the current run but not the baseline");
    }
  }
  return r;
}

std::string Result::render(const Options& opt) const {
  std::ostringstream os;
  os.precision(10);
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %-18s %16s %16s  %s\n", "cell", "metric", "baseline",
                "current", "delta");
  os << line;
  for (const Row& row : rows) {
    std::snprintf(line, sizeof line, "%-28s %-18s %16.10g %16.10g  %s%s\n", row.cell.c_str(),
                  row.metric.c_str(), row.baseline, row.current,
                  fmt_delta(row.baseline, row.current).c_str(), row.drifted ? "  DRIFT" : "");
    os << line;
  }
  for (const std::string& p : problems) os << "problem: " << p << '\n';
  os << "manet_report: " << rows.size() << " metrics compared, " << drifted
     << " drifted (tolerance " << opt.tolerance << "), " << problems.size() << " problem(s)\n";
  return os.str();
}

int run_cli(int argc, const char* const* argv) {
  Options opt;
  const char* paths[2] = {nullptr, nullptr};
  int npaths = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--tolerance=", 12) == 0) {
      char* end = nullptr;
      opt.tolerance = std::strtod(arg + 12, &end);
      // NaN and infinity would turn the gate off: no drift exceeds them.
      if (end == arg + 12 || *end != '\0' || !std::isfinite(opt.tolerance) ||
          opt.tolerance < 0.0) {
        std::fprintf(stderr,
                     "manet_report: --tolerance must be a finite number >= 0, got \"%s\"\n",
                     arg + 12);
        return 2;
      }
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "manet_report: unknown flag \"%s\"\n", arg);
      return 2;
    } else if (npaths < 2) {
      paths[npaths++] = arg;
    } else {
      std::fprintf(stderr, "manet_report: too many arguments\n");
      return 2;
    }
  }
  if (npaths != 2) {
    std::fprintf(stderr,
                 "usage: manet_report <baseline.json> <current.json> [--tolerance=F]\n");
    return 2;
  }

  Value parsed[2];
  for (int i = 0; i < 2; ++i) {
    std::string text;
    std::string err;
    if (!json::read_file(paths[i], text, err)) {
      std::fprintf(stderr, "manet_report: %s\n", err.c_str());
      return 2;
    }
    if (!json::parse(text, parsed[i], err)) {
      std::fprintf(stderr, "manet_report: %s: %s\n", paths[i], err.c_str());
      return 2;
    }
  }

  const Result r = compare(parsed[0], parsed[1], opt);
  std::fputs(r.render(opt).c_str(), stdout);
  return r.ok() ? 0 : 1;
}

}  // namespace manet::report
