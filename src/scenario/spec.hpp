#pragma once

// Declarative scenario specs: the JSON front end of the experiment layer.
//
// A scenario file describes one experiment — a base configuration plus an
// optional (protocol × axis) sweep — in data instead of C++. Every figure,
// table and ablation of the evaluation is one file under scenarios/, run by
// `manetsim run`. The loader expands it into a labeled SweepCell grid of
// validated ScenarioConfigs; a run is a pure function of (config, seed), so
// the same file reproduces the same per-seed results on any machine.
//
// Schema (all keys optional unless noted; unknown keys and keys repeated
// within one object are errors). Each plain key of a settings section is a
// row of the field table (fields.hpp), which names the ScenarioConfig
// member it sets, its unit and its range; the rest (protocol, area_m,
// trace, mobility.model, traffic.kind, traffic.rate_pps) are read by hand.
//
//   {
//     "name": "fig_pause_throughput",        // required; keys results/<name>.*
//     "description": "free text",
//     "seeds": 10,                            // replications per cell
//     "output": {"dir": "results"},
//     "base": {                               // defaults = Table I
//       "protocol": "AODV", "seed": 1, "nodes": 40, "area_m": [1500, 300],
//       "static": false, "duration_s": 150, "trace": "path.tr",
//       "mobility": {"model": "waypoint|walk|gauss-markov|manhattan",
//                    "v_min_mps": 0.1, "v_max_mps": 20, "pause_s": 0,
//                    "warmup_s": 1000, "block_m": 200, "p_turn": 0.5},
//       "traffic": {"kind": "cbr|onoff", "connections": 10,
//                   "payload_bytes": 512, "rate_pps": 4, "interval_ms": 250,
//                   "start_s": 10, "start_window_s": 10,
//                   "burst_mean_s": 5, "idle_mean_s": 5},
//       "radio": {"data_rate_bps": 2e6, "rx_range_m": 250, "cs_range_m": 550,
//                 "frame_loss_rate": 0},
//       "mac": {"use_rts": true, "rts_threshold_bytes": 0, "ifq_capacity": 50},
//       "urban": {"street_width_m": 20, "nlos_range_m": 75, "nlos_loss": 0.1},
//       "fault": {"crash_rate": 1, "downtime_mean_s": 20,  // node crashes,
//                 "window_from_s": 10},                    // the only fault
//       "transport": {"enabled": true, "rto_initial_ms": 1000, "rto_min_ms": 200,
//                     "rto_max_ms": 60000, "cwnd_init": 2, "cwnd_max": 32,
//                     "max_retx": 7, "buffer_packets": 64},
//       "aodv": {"expanding_ring": true},       // the protocol ablation knobs
//       "dsr": {"intermediate_reply": true},
//       "olsr": {"mpr_flooding": true}
//     },
//     "sweep": {
//       "protocols": ["AODV", "DSR", "CBRP"],  // default: base protocol only
//       "axes": [{"param": "pause", "values": [0, 30, 60, 120]}],
//       "cells": [{"label": "extra", "set": { ...base keys... }}]
//     }
//   }
//
// Axis params (cell labels read "PROTO/param:value"); pause, nodes, sources,
// crash and loss read their values into a field table row:
//   pause    pause time, seconds                     (>= 0)
//   vmax     node max speed, m/s; <= 0 means static  (mobility suite)
//   nodes    node count                              (integer >= 2)
//   sources  CBR connection count                    (integer >= 0)
//   crash    expected crash/restart cycles per node  (>= 0)
//   loss     per-frame loss probability              ([0, 1))
//   rate     per-flow offered load, packets/s        (> 0)
// An axis may instead set "family": "urban" — each value is then a node
// count fed through the urban Manhattan family (urban_scenario():
// constant-density city, street-canyon shadowing), and "param" only names
// the label segment (fig_scale uses "n").
//
// Validation never aborts, and every diagnostic is an Error carrying the
// 1-based source line of the offending value, so `manetsim validate` can
// render compiler-style "file:line: key: message" lines. The loader itself
// checks only what belongs to reading JSON: kinds, integer-ness, whether a
// number fits its field's type, names (keys, enums, protocols, axes),
// repeated keys, rate_pps/interval_ms exclusivity, label uniqueness and the
// header. The
// scenario contract is check()'s (scenario.hpp) alone: the loader runs it on
// every expanded cell and anchors each error at the JSON value that wrote
// the blamed field, or at the cell when no value did. Every cell of a spec
// that loads clean therefore runs: Scenario's constructor checks the same
// contract.

#include <string>
#include <vector>

#include "scenario/sweep.hpp"

namespace manet::spec {

/// Replications per cell a spec (or a `--seeds` override) may ask for.
inline constexpr int kMaxSeeds = 100000;

/// Largest |seconds| a time key (or a `--duration` override) may hold:
/// INT64_MAX ns, about 9.22e9 s, rounded down.
inline constexpr double kMaxSeconds = 9e9;

/// One validation (or parse/IO) diagnostic.
struct Error {
  int line = 0;         ///< 1-based source line; 0 = file-level
  std::string key;      ///< dotted path of the offending key ("base.nodes")
  std::string message;  ///< what is wrong, naming the offending value
};

/// Render as "file:line: key: message" (compiler-style, greppable in CI).
[[nodiscard]] std::string to_string(const Error& e, const std::string& filename);

/// A loaded scenario file: header + the expanded, validated cell grid.
struct ScenarioSpec {
  std::string name;         ///< artifact key: <out_dir>/<name>.{json,csv}
  std::string description;
  int seeds = 1;            ///< replications per cell
  std::string out_dir = "results";
  std::string filename;     ///< as passed to load_file / load_string
  std::vector<SweepCell> cells;  ///< valid only when ok()
  std::vector<Error> errors;

  [[nodiscard]] bool ok() const { return errors.empty(); }
  /// Every error rendered via to_string(), one per line.
  [[nodiscard]] std::string error_report() const;
};

/// Parse + validate `text`. Collects every diagnostic it can rather than
/// stopping at the first (a parse failure is necessarily terminal).
[[nodiscard]] ScenarioSpec load_string(const std::string& text,
                                       const std::string& filename = "<inline>");

/// Slurp `path` and load_string() it; unreadable files come back as a
/// file-level Error.
[[nodiscard]] ScenarioSpec load_file(const std::string& path);

}  // namespace manet::spec
