#include "scenario/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "scenario/experiment.hpp"

namespace manet {
namespace {

ScenarioConfig tiny_config(Protocol p, std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.seed = seed;
  cfg.num_nodes = 12;
  cfg.area = {600.0, 600.0};
  cfg.v_max = 5.0;
  cfg.num_connections = 3;
  cfg.duration = seconds(15);
  return cfg;
}

std::vector<SweepCell> tiny_grid() {
  return {{"aodv/a", tiny_config(Protocol::kAodv, 1)},
          {"aodv/b", tiny_config(Protocol::kAodv, 50)},
          {"dsdv/a", tiny_config(Protocol::kDsdv, 1)}};
}

// Artifacts are a pure function of (cells, seeds): they carry every run's
// digest and cost, so byte equality of both emitters is the whole
// determinism claim, whatever the worker count.
TEST(Sweep, ArtifactsIdenticalAcrossThreadCounts) {
  const auto grid = tiny_grid();
  const SweepResult one = SweepRunner(/*seeds=*/2, /*threads=*/1).run(grid);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const SweepResult other = SweepRunner(2, threads).run(grid);
    EXPECT_EQ(other.to_json(), one.to_json()) << threads << " workers";
    EXPECT_EQ(other.to_csv(), one.to_csv()) << threads << " workers";
  }
}

TEST(Sweep, CellsKeepRegistrationOrderAndSeeds) {
  const SweepResult r = SweepRunner(2, 4).run(tiny_grid());
  ASSERT_EQ(r.cells.size(), 3u);
  EXPECT_EQ(r.cells[0].label, "aodv/a");
  EXPECT_EQ(r.cells[1].label, "aodv/b");
  EXPECT_EQ(r.cells[2].label, "dsdv/a");
  ASSERT_EQ(r.cells[1].runs.size(), 2u);
  EXPECT_EQ(r.cells[1].runs[0].seed, 50u);  // base seed ...
  EXPECT_EQ(r.cells[1].runs[1].seed, 51u);  // ... + replication index
  EXPECT_EQ(r.seeds_per_cell, 2);
}

TEST(Sweep, ProfilesArePopulated) {
  const SweepResult r = SweepRunner(1, 1).run({{"cell", tiny_config(Protocol::kAodv)}});
  ASSERT_EQ(r.cells.size(), 1u);
  const SweepCellResult& c = r.cells[0];
  EXPECT_GT(c.aggregate.total_events, 0u);
  EXPECT_GT(c.peak_queue_depth, 0u);
  ASSERT_EQ(c.runs.size(), 1u);
  EXPECT_EQ(c.runs[0].peak_queue_depth, c.peak_queue_depth);
  EXPECT_EQ(r.total_events, c.aggregate.total_events);
}

TEST(Sweep, FindLocatesCellsByLabel) {
  const SweepResult r = SweepRunner(1, 2).run(tiny_grid());
  ASSERT_NE(r.find("dsdv/a"), nullptr);
  EXPECT_EQ(r.find("dsdv/a")->label, "dsdv/a");
  EXPECT_EQ(r.find("nope"), nullptr);
}

TEST(Aggregation, MeanAndStderrMatchHandComputedFixtures) {
  // {1, 2, 3}: mean 2, sample var 1, se = sqrt(1/3).
  const Metric m = aggregate_metric({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(m.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.se, std::sqrt(1.0 / 3.0));
  // {4, 8}: mean 6, sample var 8, se = sqrt(8/2) = 2.
  const Metric two = aggregate_metric({4.0, 8.0});
  EXPECT_DOUBLE_EQ(two.mean, 6.0);
  EXPECT_DOUBLE_EQ(two.se, 2.0);
  // Single sample and empty input degenerate to se 0.
  EXPECT_DOUBLE_EQ(aggregate_metric({5.0}).mean, 5.0);
  EXPECT_DOUBLE_EQ(aggregate_metric({5.0}).se, 0.0);
  EXPECT_DOUBLE_EQ(aggregate_metric({}).mean, 0.0);
}

TEST(Aggregation, MetricTableDrivesAggregation) {
  ScenarioResult a;
  a.pdr = 0.5;
  a.delay_ms = 10.0;
  a.throughput_kbps = 100.0;
  a.events = 7;
  ScenarioResult b;
  b.pdr = 1.0;
  b.delay_ms = 30.0;
  b.throughput_kbps = 300.0;
  b.events = 5;
  const Aggregate agg = aggregate_results({a, b});
  EXPECT_DOUBLE_EQ(agg.pdr.mean, 0.75);
  EXPECT_DOUBLE_EQ(agg.delay_ms.mean, 20.0);
  EXPECT_DOUBLE_EQ(agg.throughput_kbps.mean, 200.0);
  EXPECT_EQ(agg.total_events, 12u);
  EXPECT_EQ(agg.replications, 2);

  int count = 0;
  agg.for_each([&](const char*, const Metric&) { ++count; });
  EXPECT_EQ(count, static_cast<int>(std::size(kMetricDefs)));
}

TEST(Artifacts, JsonContainsCellsMetricsAndProfiling) {
  SweepResult r = SweepRunner(2, 2).run(tiny_grid());
  r.name = "unit_test";
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"name\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"aodv/b\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_queue_depth\""), std::string::npos);
  // Host measurements belong to benchmark/, not to the artifact.
  for (const char* host : {"\"events_per_sec\"", "\"sim_rate\"", "\"wall_s\""}) {
    EXPECT_EQ(json.find(host), std::string::npos) << host;
  }
  // Every registered metric appears.
  for (const MetricDef& d : kMetricDefs) {
    EXPECT_NE(json.find(std::string("\"") + d.name + "\""), std::string::npos) << d.name;
  }
  // Structurally sane: balanced braces/brackets.
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Artifacts, CsvHasHeaderFromMetricTableAndOneRowPerCell) {
  const SweepResult r = SweepRunner(1, 1).run(tiny_grid());
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("label,pdr_mean,pdr_se"), std::string::npos);
  EXPECT_NE(csv.find("peak_queue_depth"), std::string::npos);
  std::size_t rows = 0;
  for (const char c : csv) rows += (c == '\n');
  EXPECT_EQ(rows, 1u + r.cells.size());  // header + cells
}

TEST(Artifacts, WriteJsonCreatesParentDirectories) {
  const SweepResult r = SweepRunner(1, 1).run({{"cell", tiny_config(Protocol::kAodv)}});
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "manet_sweep_test" / "nested";
  const std::string path = (dir / "out.json").string();
  std::filesystem::remove_all(dir.parent_path());
  ASSERT_TRUE(r.write_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "{");
  std::filesystem::remove_all(dir.parent_path());
}

}  // namespace
}  // namespace manet
