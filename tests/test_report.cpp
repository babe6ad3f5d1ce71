// manet_report comparison engine: exact-match gating of sweep artifacts.
// Metrics are pure functions of (scenario, seed), so the CI gate runs at
// tolerance 0 — any numeric difference or shape change must be reported.

#include "report.hpp"

#include <gtest/gtest.h>

#include <string>

#include "scenario/spec.hpp"

namespace manet::report {
namespace {

json::Value parse(const std::string& text) {
  json::Value v;
  std::string err;
  EXPECT_TRUE(json::parse(text, v, err)) << err;
  return v;
}

const char* kBaseline = R"({
  "name": "fig", "schema": 1, "seeds_per_cell": 1,
  "cells": [
    {"label": "AODV/pause:0",
     "metrics": {"pdr": {"mean": 0.95, "se": 0}, "delay_ms": {"mean": 12.5, "se": 0}},
     "profile": {"wall_s": 1.0}},
    {"label": "DSR/pause:0",
     "metrics": {"pdr": {"mean": 0.9, "se": 0}, "delay_ms": {"mean": 20.25, "se": 0}},
     "profile": {"wall_s": 2.0}}
  ]
})";

TEST(Report, IdenticalRunsPass) {
  const json::Value base = parse(kBaseline);
  const Result r = compare(base, base, Options{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.drifted, 0);
  EXPECT_EQ(r.rows.size(), 4u);
  EXPECT_TRUE(r.problems.empty());
}

TEST(Report, ProfileNoiseIsIgnored) {
  // Same metrics, different wall-clock profile: still a pass.
  std::string other = kBaseline;
  const auto pos = other.find("\"wall_s\": 1.0");
  ASSERT_NE(pos, std::string::npos);
  other.replace(pos, 13, "\"wall_s\": 9.9");
  const Result r = compare(parse(kBaseline), parse(other), Options{});
  EXPECT_TRUE(r.ok()) << r.render(Options{});
}

TEST(Report, AnyMetricDeltaDriftsAtToleranceZero) {
  std::string other = kBaseline;
  const auto pos = other.find("12.5");
  ASSERT_NE(pos, std::string::npos);
  other.replace(pos, 4, "12.6");
  const Result r = compare(parse(kBaseline), parse(other), Options{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.drifted, 1);
  const std::string table = r.render(Options{});
  EXPECT_NE(table.find("DRIFT"), std::string::npos);
  EXPECT_NE(table.find("delay_ms"), std::string::npos);
}

TEST(Report, ToleranceAllowsSmallRelativeDrift) {
  std::string other = kBaseline;
  const auto pos = other.find("12.5");
  ASSERT_NE(pos, std::string::npos);
  other.replace(pos, 4, "12.6");  // +0.8% relative
  EXPECT_TRUE(compare(parse(kBaseline), parse(other), Options{0.01}).ok());
  EXPECT_FALSE(compare(parse(kBaseline), parse(other), Options{0.001}).ok());
}

TEST(Report, MissingCellIsAProblem) {
  const char* current = R"({
    "seeds_per_cell": 1,
    "cells": [{"label": "AODV/pause:0",
               "metrics": {"pdr": {"mean": 0.95}, "delay_ms": {"mean": 12.5}}}]
  })";
  const Result r = compare(parse(kBaseline), parse(current), Options{});
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.problems.empty());
  EXPECT_NE(r.problems[0].find("DSR/pause:0"), std::string::npos);
}

TEST(Report, ExtraCellIsAProblem) {
  std::string current = kBaseline;
  const auto pos = current.find("\"DSR/pause:0\"");
  ASSERT_NE(pos, std::string::npos);
  current.replace(pos, 13, "\"DSR/pause:9\"");
  const Result r = compare(parse(kBaseline), parse(current), Options{});
  EXPECT_FALSE(r.ok());
  // Renamed cell shows up from both directions.
  EXPECT_EQ(r.problems.size(), 2u);
}

TEST(Report, MissingMetricIsAProblem) {
  std::string current = kBaseline;
  const std::string needle = "\"delay_ms\": {\"mean\": 12.5, \"se\": 0}";
  const auto pos = current.find(needle);
  ASSERT_NE(pos, std::string::npos);
  current.replace(pos, needle.size(), "\"delay2\": {\"mean\": 12.5, \"se\": 0}");
  const Result r = compare(parse(kBaseline), parse(current), Options{});
  EXPECT_FALSE(r.ok());
  bool missing = false;
  bool extra = false;
  for (const std::string& p : r.problems) {
    missing = missing || p.find("in the baseline but not the current") != std::string::npos;
    extra = extra || p.find("in the current run but not the baseline") != std::string::npos;
  }
  EXPECT_TRUE(missing);
  EXPECT_TRUE(extra);
}

TEST(Report, SeedCountMismatchIsAProblem) {
  std::string current = kBaseline;
  const auto pos = current.find("\"seeds_per_cell\": 1");
  ASSERT_NE(pos, std::string::npos);
  current.replace(pos, 19, "\"seeds_per_cell\": 3");
  const Result r = compare(parse(kBaseline), parse(current), Options{});
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.problems.empty());
  EXPECT_NE(r.problems[0].find("seeds_per_cell"), std::string::npos);
}

TEST(Report, NonArtifactJsonIsAProblemNotACrash) {
  const Result r = compare(parse(R"({"benchmarks": []})"), parse(kBaseline), Options{});
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.problems.empty());
  EXPECT_NE(r.problems[0].find("cells"), std::string::npos);
}

TEST(Report, BaselineZeroDeltaRendersNa) {
  const char* base = R"({"cells": [{"label": "c", "metrics": {"m": {"mean": 0}}}]})";
  const char* cur = R"({"cells": [{"label": "c", "metrics": {"m": {"mean": 0.1}}}]})";
  const Result r = compare(parse(base), parse(cur), Options{});
  EXPECT_EQ(r.drifted, 1);
  EXPECT_NE(r.render(Options{}).find("n/a"), std::string::npos);
}

// The parser recurses once per nesting level, so depth is bounded: a file of
// 100,000 '[' is a parse error, not a stack overflow, in both readers.
TEST(Json, DeepNestingIsAnErrorNotACrash) {
  const std::string deep(100000, '[');
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse(deep, v, err));
  EXPECT_NE(err.find("JSON parse error (line 1): nested deeper than"), std::string::npos) << err;

  const spec::ScenarioSpec s = spec::load_string(deep, "deep.json");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error_report().find("nested deeper than"), std::string::npos) << s.error_report();
}

// A repeated key within one object is a parse error naming both lines; the
// same key in two different objects is not.
TEST(Json, RepeatedKeyIsAnError) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse("{\"a\": 1,\n\"b\": {\"a\": 2},\n\"a\": 3}", v, err));
  EXPECT_EQ(err, "JSON parse error (line 3): duplicate key \"a\" (first on line 1)");
  EXPECT_TRUE(json::parse("{\"a\": 1, \"b\": {\"a\": 2}}", v, err)) << err;
}

// A tolerance no drift can exceed turns the gate off, so the CLI rejects it
// before reading either file (the paths need not exist).
TEST(Report, NonFiniteOrNegativeToleranceIsAUsageError) {
  for (const char* flag : {"--tolerance=nan", "--tolerance=inf", "--tolerance=-inf",
                           "--tolerance=-0.5", "--tolerance="}) {
    const char* argv[] = {"manet_report", "a.json", "b.json", flag};
    EXPECT_EQ(run_cli(4, argv), 2) << flag;
  }
}

}  // namespace
}  // namespace manet::report
