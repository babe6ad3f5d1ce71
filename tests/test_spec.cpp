// Scenario spec loader: the declarative DSL must expand to exactly the cell
// grids ScenarioBuilder builds (same labels, same configs — which makes the
// runs byte-identical, since a run is a pure function of (config, seed)),
// every shipped scenario file must load, and every schema violation must
// come back as a line-anchored Error instead of Scenario's contract abort.

#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

spec::ScenarioSpec load(const std::string& text) { return spec::load_string(text, "test.json"); }

/// True when some error mentions `needle` (in the key or the message).
bool has_error(const spec::ScenarioSpec& s, const std::string& needle) {
  for (const spec::Error& e : s.errors) {
    if (e.key.find(needle) != std::string::npos || e.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// -- happy path --------------------------------------------------------------

TEST(SpecLoader, MinimalSpecYieldsOneTableOneCell) {
  const auto s = load(R"({"name": "mini"})");
  ASSERT_TRUE(s.ok()) << s.error_report();
  EXPECT_EQ(s.name, "mini");
  EXPECT_EQ(s.seeds, 1);
  EXPECT_EQ(s.out_dir, "results");
  ASSERT_EQ(s.cells.size(), 1u);
  EXPECT_EQ(s.cells[0].label, "AODV");
  EXPECT_EQ(s.cells[0].config, ScenarioBuilder().build());
}

TEST(SpecLoader, FullSchemaRoundTrip) {
  const auto s = load(R"({
    "name": "full",
    "description": "all keys",
    "seeds": 7,
    "output": {"dir": "out"},
    "base": {
      "protocol": "olsr",
      "seed": 42,
      "nodes": 25,
      "area_m": [800, 600],
      "static": false,
      "duration_s": 90,
      "trace": "t.tr",
      "mobility": {"model": "manhattan", "v_min_mps": 1, "v_max_mps": 12,
                   "pause_s": 5, "warmup_s": 500, "block_m": 100, "p_turn": 0.25},
      "traffic": {"kind": "onoff", "connections": 6, "payload_bytes": 256,
                  "interval_ms": 125, "start_s": 5, "start_window_s": 2,
                  "burst_mean_s": 3, "idle_mean_s": 4},
      "radio": {"data_rate_bps": 1e6, "rx_range_m": 200, "cs_range_m": 440,
                "frame_loss_rate": 0.05},
      "mac": {"use_rts": false, "rts_threshold_bytes": 128, "ifq_capacity": 20},
      "urban": {"street_width_m": 15, "nlos_range_m": 60, "nlos_loss": 0.2},
      "fault": {"crash_rate": 0.5, "downtime_mean_s": 8, "link_blackouts": 3,
                "blackout_mean_s": 2, "corrupt_rate": 0.1, "corrupt_from_s": 20,
                "corrupt_until_s": 40, "partition": true, "partition_frac": 0.4,
                "partition_from_s": 30, "partition_until_s": 50, "window_from_s": 15},
      "aodv": {"expanding_ring": false},
      "dsr": {"intermediate_reply": false},
      "olsr": {"mpr_flooding": false}
    }
  })");
  ASSERT_TRUE(s.ok()) << s.error_report();
  EXPECT_EQ(s.seeds, 7);
  EXPECT_EQ(s.out_dir, "out");
  ASSERT_EQ(s.cells.size(), 1u);
  EXPECT_EQ(s.cells[0].label, "OLSR");  // canonical table name, not "olsr"
  const ScenarioConfig& c = s.cells[0].config;
  EXPECT_EQ(c.protocol, Protocol::kOlsr);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_EQ(c.num_nodes, 25u);
  EXPECT_EQ(c.area.width, 800.0);
  EXPECT_EQ(c.area.height, 600.0);
  EXPECT_EQ(c.mobility, MobilityKind::kManhattan);
  EXPECT_EQ(c.v_min, 1.0);
  EXPECT_EQ(c.v_max, 12.0);
  EXPECT_EQ(c.pause, seconds(5));
  EXPECT_EQ(c.mobility_warmup, seconds(500));
  EXPECT_EQ(c.manhattan.block, 100.0);
  EXPECT_EQ(c.manhattan.p_turn, 0.25);
  EXPECT_EQ(c.traffic, TrafficKind::kOnOff);
  EXPECT_EQ(c.num_connections, 6u);
  EXPECT_EQ(c.payload_bytes, 256u);
  EXPECT_EQ(c.cbr_interval, milliseconds(125));
  EXPECT_EQ(c.cbr_start, seconds(5));
  EXPECT_EQ(c.cbr_start_window, seconds(2));
  EXPECT_EQ(c.onoff_burst_mean, seconds(3));
  EXPECT_EQ(c.onoff_idle_mean, seconds(4));
  EXPECT_EQ(c.duration, seconds(90));
  EXPECT_EQ(c.trace_path, "t.tr");
  EXPECT_EQ(c.phy.data_rate_bps, 1e6);
  EXPECT_EQ(c.phy.rx_range_m, 200.0);
  EXPECT_EQ(c.phy.cs_range_m, 440.0);
  EXPECT_EQ(c.phy.frame_loss_rate, 0.05);
  EXPECT_EQ(c.phy.street_width_m, 15.0);
  EXPECT_EQ(c.phy.nlos_rx_range_m, 60.0);
  EXPECT_EQ(c.phy.nlos_loss_rate, 0.2);
  EXPECT_FALSE(c.mac.use_rts);
  EXPECT_EQ(c.mac.rts_threshold, 128u);
  EXPECT_EQ(c.mac.ifq_capacity, 20u);
  EXPECT_EQ(c.fault.crash_rate, 0.5);
  EXPECT_EQ(c.fault.downtime_mean, seconds(8));
  EXPECT_EQ(c.fault.link_blackouts, 3);
  EXPECT_EQ(c.fault.corrupt_rate, 0.1);
  EXPECT_TRUE(c.fault.partition);
  EXPECT_EQ(c.fault.window_from, seconds(15));
  EXPECT_FALSE(c.aodv.expanding_ring);
  EXPECT_FALSE(c.dsr.intermediate_reply);
  EXPECT_FALSE(c.olsr.mpr_flooding);
}

TEST(SpecLoader, RatePpsIsIntervalReciprocal) {
  const auto s = load(
      R"({"name": "r", "base": {"traffic": {"rate_pps": 4}}})");
  ASSERT_TRUE(s.ok()) << s.error_report();
  EXPECT_EQ(s.cells[0].config.cbr_interval, milliseconds(250));
}

TEST(SpecLoader, TransportSectionRoundTrip) {
  const auto s = load(R"({
    "name": "tp",
    "base": {"transport": {
      "enabled": true, "rto_initial_ms": 500, "rto_min_ms": 100,
      "rto_max_ms": 30000, "cwnd_init": 4, "cwnd_max": 16,
      "max_retx": 5, "buffer_packets": 32
    }}
  })");
  ASSERT_TRUE(s.ok()) << s.error_report();
  const TransportConfig& t = s.cells[0].config.transport;
  EXPECT_TRUE(t.enabled);
  EXPECT_EQ(t.rto_initial, milliseconds(500));
  EXPECT_EQ(t.rto_min, milliseconds(100));
  EXPECT_EQ(t.rto_max, seconds(30));
  EXPECT_EQ(t.cwnd_init, 4u);
  EXPECT_EQ(t.cwnd_max, 16u);
  EXPECT_EQ(t.max_retx, 5u);
  EXPECT_EQ(t.buffer_packets, 32u);

  // A spec with no transport section keeps the closed loop off entirely, so
  // existing scenario files keep producing byte-identical open-loop runs.
  const auto off = load(R"({"name": "off"})");
  ASSERT_TRUE(off.ok()) << off.error_report();
  EXPECT_FALSE(off.cells[0].config.transport.enabled);
}

// -- sweep expansion ---------------------------------------------------------

TEST(SpecLoader, SweepExpandsProtocolMajorWithBenchLabels) {
  const auto s = load(R"({
    "name": "sweep",
    "sweep": {
      "protocols": ["AODV", "DSR"],
      "axes": [{"param": "pause", "values": [0, 30]}]
    }
  })");
  ASSERT_TRUE(s.ok()) << s.error_report();
  ASSERT_EQ(s.cells.size(), 4u);
  EXPECT_EQ(s.cells[0].label, "AODV/pause:0");
  EXPECT_EQ(s.cells[1].label, "AODV/pause:30");
  EXPECT_EQ(s.cells[2].label, "DSR/pause:0");
  EXPECT_EQ(s.cells[3].label, "DSR/pause:30");
  EXPECT_EQ(s.cells[1].config.pause, seconds(30));
  EXPECT_EQ(s.cells[2].config.protocol, Protocol::kDsr);
}

TEST(SpecLoader, VmaxZeroMeansStatic) {
  const auto s = load(R"({
    "name": "mob", "sweep": {"axes": [{"param": "vmax", "values": [0, 5]}]}
  })");
  ASSERT_TRUE(s.ok()) << s.error_report();
  ASSERT_EQ(s.cells.size(), 2u);
  EXPECT_EQ(s.cells[0].label, "AODV/vmax:0");
  EXPECT_TRUE(s.cells[0].config.static_nodes);
  EXPECT_FALSE(s.cells[1].config.static_nodes);
  EXPECT_EQ(s.cells[1].config.v_max, 5.0);
}

TEST(SpecLoader, RateAxisSweepsOfferedLoadAsIntervalReciprocal) {
  const auto s = load(R"({
    "name": "load",
    "sweep": {"axes": [{"param": "rate", "values": [4, 8]}]}
  })");
  ASSERT_TRUE(s.ok()) << s.error_report();
  ASSERT_EQ(s.cells.size(), 2u);
  EXPECT_EQ(s.cells[0].label, "AODV/rate:4");
  EXPECT_EQ(s.cells[1].label, "AODV/rate:8");
  EXPECT_EQ(s.cells[0].config.cbr_interval, milliseconds(250));
  EXPECT_EQ(s.cells[1].config.cbr_interval, milliseconds(125));

  const auto bad = load(R"({
    "name": "load0", "sweep": {"axes": [{"param": "rate", "values": [0]}]}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(has_error(bad, "> 0"));
}

TEST(SpecLoader, ExplicitCellsOverrideBase) {
  const auto s = load(R"({
    "name": "cells",
    "base": {"nodes": 20},
    "sweep": {"cells": [
      {"label": "small", "set": {"nodes": 10}},
      {"label": "big", "set": {"nodes": 80, "aodv": {"expanding_ring": false}}}
    ]}
  })");
  ASSERT_TRUE(s.ok()) << s.error_report();
  ASSERT_EQ(s.cells.size(), 2u);
  EXPECT_EQ(s.cells[0].label, "small");
  EXPECT_EQ(s.cells[0].config.num_nodes, 10u);
  EXPECT_TRUE(s.cells[0].config.aodv.expanding_ring);
  EXPECT_EQ(s.cells[1].config.num_nodes, 80u);
  EXPECT_FALSE(s.cells[1].config.aodv.expanding_ring);
}

// -- error paths -------------------------------------------------------------
// Every kind of schema violation must surface as a line-anchored Error; none
// may reach the builder's aborting contracts.

TEST(SpecErrors, MissingName) {
  const auto s = load(R"({"base": {}})");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "name"));
  EXPECT_TRUE(has_error(s, "required key is missing"));
}

TEST(SpecErrors, UnknownKeysAtEveryLevel) {
  const auto s = load(R"({
    "name": "u",
    "typo_top": 1,
    "base": {"typo_base": 2, "mobility": {"typo_mob": 3}, "aodv": {"hello_interval_ms": 1}}
  })");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "typo_top"));
  EXPECT_TRUE(has_error(s, "base.typo_base"));
  EXPECT_TRUE(has_error(s, "base.mobility.typo_mob"));
  EXPECT_TRUE(has_error(s, "base.aodv.hello_interval_ms"));
  EXPECT_TRUE(has_error(s, "unknown key"));
}

TEST(SpecErrors, WrongTypes) {
  const auto s = load(R"({
    "name": "t",
    "base": {"nodes": "forty", "static": 1, "mobility": [1, 2]}
  })");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "expected number, got string"));
  EXPECT_TRUE(has_error(s, "expected bool, got number"));
  EXPECT_TRUE(has_error(s, "expected object, got array"));
}

TEST(SpecErrors, OutOfRangeValues) {
  const auto s = load(R"({
    "name": "r",
    "base": {
      "nodes": 1,
      "duration_s": -5,
      "radio": {"frame_loss_rate": 1.0},
      "mobility": {"pause_s": -1},
      "fault": {"corrupt_rate": 1.5}
    }
  })");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "base.nodes"));
  EXPECT_TRUE(has_error(s, "base.duration_s"));
  EXPECT_TRUE(has_error(s, "base.radio.frame_loss_rate"));
  EXPECT_TRUE(has_error(s, "base.mobility.pause_s"));
  EXPECT_TRUE(has_error(s, "base.fault.corrupt_rate"));
}

TEST(SpecErrors, NonIntegerWhereIntegerRequired) {
  const auto s = load(R"({"name": "i", "base": {"nodes": 12.5}})");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "must be an integer"));
}

TEST(SpecErrors, UnknownProtocolListsRegistry) {
  const auto s = load(R"({"name": "p", "base": {"protocol": "XYZ"}})");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "unknown protocol \"XYZ\""));
  EXPECT_TRUE(has_error(s, "AODV"));  // the message names the registered set
  const auto s2 = load(R"({"name": "p2", "sweep": {"protocols": ["AODV", "NOPE"]}})");
  ASSERT_FALSE(s2.ok());
  EXPECT_TRUE(has_error(s2, "sweep.protocols[1]"));
}

TEST(SpecErrors, UnknownMobilityModelAndTrafficKind) {
  const auto s = load(R"({
    "name": "m",
    "base": {"mobility": {"model": "teleport"}, "traffic": {"kind": "tcp"}}
  })");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "unknown mobility model \"teleport\""));
  EXPECT_TRUE(has_error(s, "unknown traffic kind \"tcp\""));
}

TEST(SpecErrors, RateAndIntervalAreExclusive) {
  const auto s = load(
      R"({"name": "x", "base": {"traffic": {"rate_pps": 4, "interval_ms": 250}}})");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "mutually exclusive"));
}

TEST(SpecErrors, CrossFieldContracts) {
  const auto s = load(R"({
    "name": "c",
    "base": {"mobility": {"v_min_mps": 9, "v_max_mps": 3}}
  })");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "v_min <= v_max"));

  const auto s2 = load(R"({
    "name": "c2", "base": {"duration_s": 5, "traffic": {"start_s": 10}}
  })");
  ASSERT_FALSE(s2.ok());
  EXPECT_TRUE(has_error(s2, "after the run ends"));

  const auto s3 = load(R"({
    "name": "c3",
    "base": {"urban": {"street_width_m": 20, "nlos_range_m": 400}}
  })");
  ASSERT_FALSE(s3.ok());
  EXPECT_TRUE(has_error(s3, "nlos_rx_range_m"));

  const auto s4 = load(R"({
    "name": "c4",
    "base": {"duration_s": 30, "fault": {"crash_rate": 1, "window_from_s": 60}}
  })");
  ASSERT_FALSE(s4.ok());
  EXPECT_TRUE(has_error(s4, "fault window opens"));
}

TEST(SpecErrors, TransportKeyAndValueViolations) {
  const auto s = load(R"({
    "name": "tp",
    "base": {"transport": {"typo_key": 1, "enabled": "yes"}}
  })");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "base.transport.typo_key"));
  EXPECT_TRUE(has_error(s,
                        "unknown key (expected: enabled, rto_initial_ms, rto_min_ms, "
                        "rto_max_ms, cwnd_init, cwnd_max, max_retx, buffer_packets)"));
  EXPECT_TRUE(has_error(s, "expected bool, got string"));

  const auto s2 = load(R"({
    "name": "tp2",
    "base": {"transport": {"rto_initial_ms": 0, "rto_min_ms": -5, "cwnd_init": 0,
                           "max_retx": 0, "buffer_packets": 2.5}}
  })");
  ASSERT_FALSE(s2.ok());
  EXPECT_TRUE(has_error(s2, "base.transport.rto_initial_ms"));
  EXPECT_TRUE(has_error(s2, "base.transport.rto_min_ms"));
  EXPECT_TRUE(has_error(s2, "must be > 0, got -0.005s"));  // rto_min_ms: -5, in seconds
  EXPECT_TRUE(has_error(s2, "base.transport.cwnd_init"));
  EXPECT_TRUE(has_error(s2, "base.transport.max_retx"));
  EXPECT_TRUE(has_error(s2, "must be >= 1, got 0"));
  EXPECT_TRUE(has_error(s2, "base.transport.buffer_packets"));
  EXPECT_TRUE(has_error(s2, "must be an integer"));

  // Errors are line-anchored at the offending value, like every other key.
  const auto s3 =
      load("{\n\"name\": \"x\",\n\"base\": {\n  \"transport\": {\n    \"cwnd_init\": 0\n}\n}\n}");
  ASSERT_FALSE(s3.ok());
  ASSERT_EQ(s3.errors.size(), 1u);
  EXPECT_EQ(spec::to_string(s3.errors[0], "f.json"),
            "f.json:5: base.transport.cwnd_init: must be >= 1, got 0");
}

TEST(SpecErrors, TransportCrossFieldContracts) {
  // rto_min above rto_initial breaks the RTO ordering contract.
  const auto s = load(R"({
    "name": "c", "base": {"transport": {"enabled": true, "rto_min_ms": 2000}}
  })");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "transport rto bounds need 0 < rto_min <= rto_initial <= rto_max"));

  const auto s2 = load(R"({
    "name": "c2",
    "base": {"transport": {"enabled": true, "cwnd_init": 8, "cwnd_max": 4}}
  })");
  ASSERT_FALSE(s2.ok());
  EXPECT_TRUE(has_error(s2, "transport cwnd needs 1 <= cwnd_init <= cwnd_max"));

  const auto s3 = load(R"({
    "name": "c3",
    "base": {"transport": {"enabled": true, "cwnd_max": 24, "buffer_packets": 8}}
  })");
  ASSERT_FALSE(s3.ok());
  EXPECT_TRUE(has_error(s3, "transport.buffer_packets must be >= cwnd_max"));

  // With the transport disabled the same values are inert configuration, not
  // a contract violation — the simulator never reads them.
  const auto s4 = load(R"({
    "name": "c4", "base": {"transport": {"rto_min_ms": 2000, "cwnd_init": 8, "cwnd_max": 4}}
  })");
  EXPECT_TRUE(s4.ok()) << s4.error_report();
}

TEST(SpecErrors, SweepShapeErrors) {
  const auto s = load(R"({
    "name": "s",
    "sweep": {"axes": [{"param": "bogus", "values": [1]}]}
  })");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "unknown sweep param \"bogus\""));

  const auto s2 = load(R"({
    "name": "s2",
    "sweep": {"cells": [{"label": "dup"}, {"label": "dup"}]}
  })");
  ASSERT_FALSE(s2.ok());
  EXPECT_TRUE(has_error(s2, "duplicate cell label \"dup\""));

  const auto s3 = load(R"({
    "name": "s3", "sweep": {"axes": [{"param": "pause"}]}
  })");
  ASSERT_FALSE(s3.ok());
  EXPECT_TRUE(has_error(s3, "values"));
}

TEST(SpecErrors, ParseErrorCarriesLine) {
  const auto s = load("{\n  \"name\": \"x\",\n  oops\n}");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(has_error(s, "JSON parse error"));
  EXPECT_TRUE(has_error(s, "line 3"));
}

// A repeated key would be read twice: a lookup sees the first copy, the
// section walk applies the last. The loader rejects it whichever comes first.
TEST(SpecErrors, RepeatedKeyIsAnErrorNamingTheFirstCopy) {
  for (const char* text : {"{\n\"name\": \"d\",\n\"base\": {\"nodes\": 20,\n\"nodes\": 1}\n}",
                           "{\n\"name\": \"d\",\n\"base\": {\"nodes\": 1,\n\"nodes\": 20}\n}"}) {
    const auto s = load(text);
    ASSERT_EQ(s.errors.size(), 1u) << s.error_report();
    EXPECT_EQ(spec::to_string(s.errors[0], "f.json"),
              "f.json: JSON parse error (line 4): duplicate key \"nodes\" (first on line 3)");
  }
  const auto twice = load("{\"name\": \"d\", \"base\": {\"nodes\": 20},\n\"base\": {}}");
  ASSERT_FALSE(twice.ok());
  EXPECT_TRUE(has_error(twice, "duplicate key \"base\" (first on line 1)"));
}

TEST(SpecErrors, SemanticErrorsPointAtTheValueLine) {
  const auto s = load("{\n\"name\": \"x\",\n\"base\": {\n  \"nodes\": 1\n}\n}");
  ASSERT_FALSE(s.ok());
  ASSERT_EQ(s.errors.size(), 1u);
  EXPECT_EQ(s.errors[0].line, 4);  // the line "nodes": 1 sits on
  EXPECT_EQ(s.errors[0].key, "base.nodes");
  EXPECT_EQ(spec::to_string(s.errors[0], "f.json"), "f.json:4: base.nodes: must be >= 2, got 1");
}

TEST(SpecErrors, IntegersMustFitTheirField) {
  // 2^32 + 2 and 2^32 + 1 would wrap to 2 and 1 in these uint32_t fields.
  const auto s = load(
      "{\n\"name\": \"wrap\",\n\"base\": {\"nodes\": 4294967298,\n"
      "\"transport\": {\"cwnd_max\": 4294967297}}\n}");
  ASSERT_FALSE(s.ok());
  ASSERT_EQ(s.errors.size(), 2u) << s.error_report();
  EXPECT_EQ(spec::to_string(s.errors[0], "f.json"),
            "f.json:3: base.nodes: must be in [0, 4294967295], got 4294967298");
  EXPECT_EQ(spec::to_string(s.errors[1], "f.json"),
            "f.json:4: base.transport.cwnd_max: must be in [0, 4294967295], got 4294967297");
}

TEST(SpecErrors, MissingFileIsAnError) {
  const auto s = spec::load_file("/nonexistent/path/spec.json");
  ASSERT_FALSE(s.ok());
}

// -- hostile input -----------------------------------------------------------
// One mutation at a time of every shipped scenario file: the loader must
// never abort, and whatever it accepts must satisfy the scenario contract.

std::string scenario_path(const char* file) {
  return std::string(MANET_SCENARIOS_DIR) + "/" + file;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A scalar token of the JSON text: [begin, end) and what it is.
struct Token {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool number = false;
  bool key = false;  ///< a string followed by ':'
};

std::vector<Token> scalar_tokens(const std::string& t) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < t.size()) {
    const char ch = t[i];
    if (ch == '"') {
      std::size_t j = i + 1;
      while (j < t.size() && t[j] != '"') j += t[j] == '\\' ? 2 : 1;
      j = std::min(j + 1, t.size());
      std::size_t k = j;
      while (k < t.size() && std::isspace(static_cast<unsigned char>(t[k])) != 0) ++k;
      out.push_back({i, j, false, k < t.size() && t[k] == ':'});
      i = j;
    } else if (ch == '-' || std::isdigit(static_cast<unsigned char>(ch)) != 0) {
      std::size_t j = i + 1;
      while (j < t.size() && std::strchr("0123456789.eE+-", t[j]) != nullptr) ++j;
      out.push_back({i, j, true, false});
      i = j;
    } else if (t.compare(i, 4, "true") == 0 || t.compare(i, 4, "null") == 0 ||
               t.compare(i, 5, "false") == 0) {
      const std::size_t n = ch == 'f' ? 5 : 4;
      out.push_back({i, i + n, false, false});
      i += n;
    } else {
      ++i;
    }
  }
  return out;
}

std::string mutate(const std::string& text, RngStream& rng) {
  static const char* const kNumbers[] = {"-1", "0", "0.5", "4294967298", "1e15", "1e300"};
  static const char* const kValues[] = {"\"s\"", "true", "null", "[]", "{}", "7"};
  const std::vector<Token> tokens = scalar_tokens(text);
  std::vector<Token> numbers;
  std::vector<Token> values;
  for (const Token& tok : tokens) {
    if (tok.number) numbers.push_back(tok);
    if (!tok.key) values.push_back(tok);
  }
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::string out = text;
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // replace a number with a hostile one
      const Token& tok = numbers[pick(numbers.size())];
      out.replace(tok.begin, tok.end - tok.begin, kNumbers[pick(std::size(kNumbers))]);
      break;
    }
    case 1:  // delete a character
      out.erase(pick(out.size()), 1);
      break;
    case 2: {  // duplicate a character
      const std::size_t at = pick(out.size());
      out.insert(at, 1, out[at]);
      break;
    }
    default: {  // change a value's type
      const Token& tok = values[pick(values.size())];
      std::string repl = kValues[pick(std::size(kValues))];
      while (repl[0] == out[tok.begin] || (tok.number && repl == "7")) {
        repl = kValues[pick(std::size(kValues))];
      }
      out.replace(tok.begin, tok.end - tok.begin, repl);
      break;
    }
  }
  return out;
}

TEST(SpecHostileInput, MutatedScenariosNeverAbortAndAcceptOnlyValidCells) {
  RngStream rng(20260417);
  int accepted = 0;
  for (const char* file : {"fig_pause_throughput.json", "fig_fault_pdr.json",
                           "fig_load_collapse.json", "urban_city.json"}) {
    const std::string text = slurp(scenario_path(file));
    ASSERT_FALSE(text.empty()) << file;
    for (int step = 0; step < 400; ++step) {
      const std::string mutated = mutate(text, rng);
      const auto s = spec::load_string(mutated, file);
      if (!s.ok()) continue;
      ++accepted;
      for (const SweepCell& cell : s.cells) {
        const std::vector<ConfigError> errors = check(cell.config);
        EXPECT_TRUE(errors.empty()) << file << " step " << step << " cell " << cell.label << ": "
                                    << errors.front().field << ": " << errors.front().message;
        Scenario accepted_cell(cell.config);
      }
    }
  }
  EXPECT_GT(accepted, 0);  // some mutations (digits in descriptions, ...) stay valid
}

// -- shipped scenarios --------------------------------------------------------
// Every file under scenarios/ is an experiment of the evaluation: it must
// load, expand to at least one cell, and be named after its file, because
// the name keys results/<name>.json.

TEST(ShippedScenarios, EveryFileLoadsIsNamedAfterItsStemAndHasCells) {
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(MANET_SCENARIOS_DIR)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") continue;
    ++files;
    const auto s = spec::load_file(entry.path().string());
    EXPECT_TRUE(s.ok()) << s.error_report();
    EXPECT_EQ(s.name, entry.path().stem().string());
    EXPECT_FALSE(s.cells.empty()) << entry.path();
  }
  EXPECT_GT(files, 0);
}

// -- DSL == ScenarioBuilder twins --------------------------------------------
// The DSL's derived expansions must build exactly the configs their
// ScenarioBuilder spelling builds. Equal configs => per-seed runs are
// byte-identical (a run is a pure function of (config, seed)).

TEST(SpecTwins, UrbanFamilyMatchesUrbanScenario) {
  const auto s = spec::load_file(scenario_path("urban_city.json"));
  ASSERT_TRUE(s.ok()) << s.error_report();
  ASSERT_EQ(s.cells.size(), 4u);
  std::size_t i = 0;
  for (const Protocol p : {Protocol::kAodv, Protocol::kDsr}) {
    for (const std::uint32_t n : {40u, 200u}) {
      const ScenarioConfig twin = urban_scenario(n).protocol(p).seed(1).build();
      EXPECT_EQ(s.cells[i].config, twin) << s.cells[i].label;
      ++i;
    }
  }
}

// One run per protocol: a DSL-expanded cell and its hand-built builder twin
// must produce the same results to the last event counter (golden pin for
// the whole spec -> config -> run pipeline; SLOW tier).
TEST(SpecTwins, RunPerProtocolIsByteIdentical) {
  const auto s = load(R"({
    "name": "golden",
    "base": {
      "seed": 1, "nodes": 14, "area_m": [650, 650], "duration_s": 25,
      "mobility": {"v_max_mps": 6}, "traffic": {"connections": 4}
    },
    "sweep": {"protocols": ["AODV", "DSR", "CBRP", "DSDV", "OLSR", "LAR", "TORA"]}
  })");
  ASSERT_TRUE(s.ok()) << s.error_report();
  ASSERT_EQ(s.cells.size(), 7u);
  for (const SweepCell& cell : s.cells) {
    ScenarioConfig twin;  // test::dense_field(), via builder
    {
      const ProtocolEntry* e = find_protocol(cell.label);
      ASSERT_NE(e, nullptr) << cell.label;
      twin = ScenarioBuilder()
                 .protocol(e->id)
                 .seed(1)
                 .nodes(14)
                 .area(650.0, 650.0)
                 .speed(0.1, 6.0)
                 .connections(4)
                 .duration(seconds(25))
                 .build();
    }
    ASSERT_EQ(cell.config, twin) << cell.label;
    test::expect_same_run(Scenario::run_once(cell.config), Scenario::run_once(twin), cell.label);
  }
}

}  // namespace
}  // namespace manet
