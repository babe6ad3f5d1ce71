// The benchmark gate is itself gated: these tests prove the comparison
// engine parses both producer shapes, tolerates noise inside the threshold,
// and — the fixture CI relies on — fails a simulated >25% slowdown.
#include "gate.hpp"

#include <gtest/gtest.h>

#include "scenario/sweep.hpp"

namespace manet::gate {
namespace {

using Entries = std::vector<Entry>;

Entries parse_ok(const std::string& text) {
  Entries out;
  std::string err;
  EXPECT_TRUE(extract_entries(text, out, err)) << err;
  return out;
}

TEST(BenchGate, ParsesGoogleBenchmarkJson) {
  const Entries e = parse_ok(R"({
    "context": {"date": "irrelevant", "host_name": "ci"},
    "benchmarks": [
      {"name": "EventQueueScheduleRun/1000", "run_type": "iteration",
       "real_time": 1.0e5, "items_per_second": 1.25e7},
      {"name": "EventQueueScheduleRun/1000_mean", "run_type": "aggregate",
       "items_per_second": 1.2e7},
      {"name": "NoItemsCounter", "real_time": 5.0}
    ]
  })");
  // Aggregate rows and rows without items_per_second are skipped.
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].name, "EventQueueScheduleRun/1000");
  EXPECT_DOUBLE_EQ(e[0].events_per_sec, 1.25e7);
  EXPECT_DOUBLE_EQ(e[0].wall_s, 0.0);
}

TEST(BenchGate, ParsesBaselineShape) {
  const Entries e = parse_ok(R"({
    "schema": 1,
    "entries": [
      {"name": "fig_pause_throughput", "events_per_sec": 8.1e6, "wall_s": 2.5},
      {"name": "fig_pause_throughput/AODV/pause:0", "events_per_sec": 7.9e6, "wall_s": 0.6}
    ]
  })");
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[1].name, "fig_pause_throughput/AODV/pause:0");
  EXPECT_DOUBLE_EQ(e[1].wall_s, 0.6);
}

TEST(BenchGate, SweepArtifactEmitterRoundTrips) {
  // The gate reads SweepResult::to_json() — the artifact `manetsim run`
  // writes — into the entry names the committed BENCH_*.json files use,
  // memory per node included: this is the contract between the two halves.
  SweepResult sweep;
  sweep.name = "fig_scale";
  sweep.events_per_sec = 5.0e6;
  sweep.wall_s = 3.0;
  SweepCellResult cell;
  cell.label = "AODV/n:2000";
  cell.events_per_sec = 4.5e6;
  cell.wall_s = 1.5;
  cell.bytes_per_node = 7235.5;
  sweep.cells.push_back(std::move(cell));

  const Entries e = parse_ok(sweep.to_json());
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0].name, "fig_scale");
  EXPECT_DOUBLE_EQ(e[0].events_per_sec, 5.0e6);
  EXPECT_EQ(e[1].name, "fig_scale/AODV/n:2000");
  EXPECT_DOUBLE_EQ(e[1].events_per_sec, 4.5e6);
  EXPECT_DOUBLE_EQ(e[1].wall_s, 1.5);
  EXPECT_DOUBLE_EQ(e[1].bytes_per_node, 7235.5);

  // And the gate's own serializer round-trips too.
  const Entries again = parse_ok(to_baseline_json(e));
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[1].name, e[1].name);
  EXPECT_DOUBLE_EQ(again[1].events_per_sec, e[1].events_per_sec);
  EXPECT_DOUBLE_EQ(again[1].bytes_per_node, e[1].bytes_per_node);
}

TEST(BenchGate, ParsesFullSweepArtifact) {
  const Entries e = parse_ok(R"({
    "name": "fig_pause_throughput", "schema": 1,
    "wall_s": 2.0, "events_per_sec": 6.0e6,
    "cells": [
      {"label": "AODV/pause:0", "metrics": {"pdr": {"mean": 0.9, "se": 0.01}},
       "profile": {"wall_s": 1.0, "events_per_sec": 5.5e6, "runs": []}}
    ]
  })");
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[1].name, "fig_pause_throughput/AODV/pause:0");
  EXPECT_DOUBLE_EQ(e[1].events_per_sec, 5.5e6);
}

TEST(BenchGate, RejectsMalformedJson) {
  Entries out;
  std::string err;
  EXPECT_FALSE(extract_entries("{\"entries\": [", out, err));
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(extract_entries("{\"unknown\": 1}", out, err));
  EXPECT_NE(err.find("unrecognized"), std::string::npos);
}

TEST(BenchGate, NoiseWithinThresholdPasses) {
  const Entries baseline = {{"kernel", 10.0e6, 1.0}};
  const Entries fresh = {{"kernel", 8.0e6, 1.2}};  // -20%: inside the 25% band
  const CheckResult r = check(baseline, fresh, {});
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_EQ(r.compared, 1);
}

TEST(BenchGate, SimulatedLargeSlowdownFails) {
  // The acceptance fixture: a >25% events/sec drop must fail the gate.
  const Entries baseline = {{"EventQueueScheduleRun/100000", 4.7e6, 0.0},
                            {"ScenarioEventRate", 7.8e6, 0.0}};
  Entries fresh = baseline;
  fresh[1].events_per_sec = baseline[1].events_per_sec * 0.70;  // -30%
  const CheckResult r = check(baseline, fresh, {});
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("ScenarioEventRate"), std::string::npos);
  EXPECT_NE(r.report.find("FAIL"), std::string::npos);
}

TEST(BenchGate, ImprovementsAlwaysPass) {
  const Entries baseline = {{"kernel", 5.0e6, 2.0}};
  const Entries fresh = {{"kernel", 9.0e6, 1.0}};
  EXPECT_TRUE(check(baseline, fresh, {}).ok);
}

TEST(BenchGate, MissingEntryFails) {
  // A benchmark silently dropped from the fresh run must not un-gate itself.
  const Entries baseline = {{"kernel", 5.0e6, 0.0}, {"vanished", 3.0e6, 0.0}};
  const Entries fresh = {{"kernel", 5.0e6, 0.0}};
  const CheckResult r = check(baseline, fresh, {});
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("missing"), std::string::npos);
  // New benchmarks in fresh (absent from baseline) are fine.
  EXPECT_TRUE(check(fresh, baseline, {}).ok);
}

TEST(BenchGate, WallClockOnlyGatesWhenStrict) {
  const Entries baseline = {{"sweep", 5.0e6, 1.0}};
  const Entries fresh = {{"sweep", 5.0e6, 2.0}};  // 2x slower wall-clock
  EXPECT_TRUE(check(baseline, fresh, {}).ok);     // advisory by default
  CheckOptions strict;
  strict.strict_wall = true;
  const CheckResult r = check(baseline, fresh, strict);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failures[0].find("wall_s"), std::string::npos);
}

TEST(BenchGate, CustomThresholdRespected) {
  const Entries baseline = {{"kernel", 10.0e6, 0.0}};
  const Entries fresh = {{"kernel", 8.9e6, 0.0}};  // -11%
  CheckOptions tight;
  tight.max_regress = 0.10;
  EXPECT_FALSE(check(baseline, fresh, tight).ok);
  CheckOptions loose;
  loose.max_regress = 0.15;
  EXPECT_TRUE(check(baseline, fresh, loose).ok);
}

}  // namespace
}  // namespace manet::gate
