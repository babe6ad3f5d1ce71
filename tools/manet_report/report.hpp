// manet_report — cross-run metric diff for sweep artifacts.
//
// Compares two results/<name>.json files (the SweepResult::to_json() shape:
// cells[].label + metrics.{name}.{mean,se}) cell by cell and metric by
// metric, printing a table with percent deltas and failing when any metric
// drifts beyond the tolerance. Because every metric is a pure function of
// (scenario, seed), the default tolerance is 0: a committed baseline must be
// reproduced exactly, which is the contract the CI scenario job gates on.
// Only metric means are compared: the per-run profile (events, peak queue
// depth, flows) is pinned by the CI job's byte comparison of the whole
// artifact, and schema-1 artifacts' host timings are ignored.
//
// Exit codes: 0 identical within tolerance, 1 drift or shape mismatch
// (missing/extra cells, metric sets, replication counts), 2 usage/IO/parse
// error.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"

namespace manet::report {

struct Options {
  /// Max allowed relative drift per metric mean (0 = exact match).
  double tolerance = 0.0;
};

/// One compared (cell, metric) pair.
struct Row {
  std::string cell;
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  bool drifted = false;
};

struct Result {
  std::vector<Row> rows;             ///< baseline order: cells, then metrics
  std::vector<std::string> problems; ///< shape mismatches, in discovery order
  int drifted = 0;                   ///< rows over tolerance

  [[nodiscard]] bool ok() const { return drifted == 0 && problems.empty(); }
  /// The rendered comparison table + problem list + a one-line verdict.
  [[nodiscard]] std::string render(const Options& opt) const;
};

/// Compare two parsed sweep artifacts. Shape errors (no "cells" array, cells
/// without labels/metrics) land in `problems`, never throw.
[[nodiscard]] Result compare(const json::Value& baseline, const json::Value& current,
                             const Options& opt);

/// CLI driver: manet_report <baseline.json> <current.json> [--tolerance=F].
int run_cli(int argc, const char* const* argv);

}  // namespace manet::report
