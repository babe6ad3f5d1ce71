// ScenarioBuilder: the fluent construction path must stage exactly the same
// config a careful hand-assembly produces and resolve protocol names through
// the protocol table. The scenario contract, check(), is pinned here too:
// Scenario rejects invalid configs where the run starts, with the offending
// values in the contract message (death tests — contracts abort).

#include "scenario/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "scenario/fields.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

TEST(ScenarioBuilder, DefaultBuildMatchesTableOneDefaults) {
  const ScenarioConfig defaults;
  EXPECT_EQ(ScenarioBuilder().build(), defaults);
}

TEST(ScenarioBuilder, SettersStageExactlyTheNamedFields) {
  const ScenarioConfig cfg = ScenarioBuilder()
                                 .protocol(Protocol::kOlsr)
                                 .seed(7)
                                 .nodes(70)
                                 .area(1500.0, 300.0)
                                 .mobility(MobilityKind::kGaussMarkov)
                                 .speed(0.5, 15.0)
                                 .pause(seconds(30))
                                 .connections(20)
                                 .duration(seconds(90))
                                 .trace("/tmp/t.tr")
                                 .build();
  EXPECT_EQ(cfg.protocol, Protocol::kOlsr);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.num_nodes, 70u);
  EXPECT_EQ(cfg.area.width, 1500.0);
  EXPECT_EQ(cfg.area.height, 300.0);
  EXPECT_EQ(cfg.mobility, MobilityKind::kGaussMarkov);
  EXPECT_EQ(cfg.v_min, 0.5);
  EXPECT_EQ(cfg.v_max, 15.0);
  EXPECT_EQ(cfg.pause, seconds(30));
  EXPECT_EQ(cfg.num_connections, 20u);
  EXPECT_EQ(cfg.duration, seconds(90));
  EXPECT_EQ(cfg.trace_path, "/tmp/t.tr");
}

TEST(ScenarioBuilder, ProtocolByNameIsCaseInsensitive) {
  EXPECT_EQ(ScenarioBuilder().protocol("dsr").build().protocol, Protocol::kDsr);
  EXPECT_EQ(ScenarioBuilder().protocol("OlSr").build().protocol, Protocol::kOlsr);
  EXPECT_EQ(ScenarioBuilder().protocol("TORA").build().protocol, Protocol::kTora);
}

TEST(ScenarioBuilder, LaterProtocolSetterWins) {
  // A by-name setter supersedes an earlier by-enum one and vice versa.
  EXPECT_EQ(ScenarioBuilder().protocol(Protocol::kDsdv).protocol("lar").build().protocol,
            Protocol::kLar);
  EXPECT_EQ(ScenarioBuilder().protocol("lar").protocol(Protocol::kDsdv).build().protocol,
            Protocol::kDsdv);
}

TEST(ScenarioBuilder, FromExistingConfigPreservesEveryField) {
  ScenarioConfig base;
  base.protocol = Protocol::kCbrp;
  base.num_nodes = 33;
  base.v_max = 9.0;
  base.mac.ifq_capacity = 13;
  const ScenarioConfig round = ScenarioBuilder::from(base).build();
  EXPECT_EQ(round.protocol, Protocol::kCbrp);
  EXPECT_EQ(round.num_nodes, 33u);
  EXPECT_EQ(round.v_max, 9.0);
  EXPECT_EQ(round.mac.ifq_capacity, 13u);
  // ...and variations stage on top of the imported base.
  EXPECT_EQ(ScenarioBuilder::from(base).nodes(44).build().num_nodes, 44u);
}

TEST(ScenarioBuilder, FaultSetterStagesTheFaultPlan) {
  FaultConfig fault;
  fault.crash_rate = 0.5;
  fault.downtime_mean = seconds(5);
  const ScenarioConfig cfg = ScenarioBuilder().fault(fault).build();
  EXPECT_EQ(cfg.fault.crash_rate, 0.5);
  EXPECT_EQ(cfg.fault.downtime_mean, seconds(5));
}

// ---------------------------------------------------------------------------
// Validation: a run must reject nonsense loudly, naming the bad value.
// ---------------------------------------------------------------------------

TEST(ScenarioBuilderDeathTest, UnknownProtocolNameListsRegisteredOnes) {
  EXPECT_DEATH((void)ScenarioBuilder().protocol("ospf"), "unknown protocol.*AODV");
}

TEST(ScenarioBuilderDeathTest, RejectsTooFewNodes) {
  const ScenarioConfig cfg = ScenarioBuilder().nodes(1).build();
  EXPECT_DEATH({ Scenario s(cfg); }, "num_nodes");
}

TEST(ScenarioBuilderDeathTest, RejectsNonPositiveArea) {
  const ScenarioConfig cfg = ScenarioBuilder().area(0.0, 300.0).build();
  EXPECT_DEATH({ Scenario s(cfg); }, "area");
}

TEST(ScenarioBuilderDeathTest, RejectsNonPositiveDuration) {
  const ScenarioConfig cfg = ScenarioBuilder().duration(SimTime::zero()).build();
  EXPECT_DEATH({ Scenario s(cfg); }, "duration");
}

TEST(ScenarioBuilderDeathTest, RejectsInvertedSpeedRange) {
  const ScenarioConfig cfg = ScenarioBuilder().speed(5.0, 1.0).build();
  EXPECT_DEATH({ Scenario s(cfg); }, "v_m");
}

TEST(ScenarioBuilderDeathTest, RejectsFrameLossOutsideUnitInterval) {
  ScenarioConfig cfg = ScenarioBuilder().build();
  cfg.phy.frame_loss_rate = 1.5;
  EXPECT_DEATH({ Scenario s(cfg); }, "loss");
}

TEST(ScenarioBuilderDeathTest, RejectsFaultWindowPastEndOfRun) {
  FaultConfig fault;
  fault.crash_rate = 0.5;
  fault.window_from = seconds(500);  // run only lasts 150 s
  const ScenarioConfig cfg = ScenarioBuilder().fault(fault).build();
  EXPECT_DEATH({ Scenario s(cfg); }, "window");
}

// ---------------------------------------------------------------------------
// The scenario contract, one row per rule: a scenario file that breaks it
// loads with an error anchored at the offending value's line and key, check()
// blames the field, and Scenario dies on the loaded config.
// ---------------------------------------------------------------------------

struct Violation {
  const char* field;  ///< what check() must blame: a field table path
  const char* json;   ///< the violation as `base` settings, on one line
  /// Where the loader anchors it, under "base.", when not at the field's key.
  const char* key = nullptr;
};

const Violation kViolations[] = {
    {"num_nodes", R"("nodes": 1)"},
    {"area.width", R"("area_m": [0, 300])", "area_m[0]"},
    {"area.height", R"("area_m": [300, -1])", "area_m[1]"},
    {"duration", R"("duration_s": 0)"},
    {"v_min", R"("mobility": {"v_min_mps": -1})"},
    {"v_max", R"("static": true, "mobility": {"v_max_mps": -1})"},
    {"pause", R"("mobility": {"pause_s": -1})"},
    {"mobility_warmup", R"("mobility": {"warmup_s": -1})"},
    {"manhattan.block", R"("mobility": {"block_m": 0})"},
    {"manhattan.p_turn", R"("mobility": {"p_turn": 1.5})"},
    {"v_max", R"("mobility": {"v_min_mps": 9, "v_max_mps": 3})"},
    {"payload_bytes", R"("traffic": {"payload_bytes": 0})"},
    {"cbr_interval", R"("traffic": {"interval_ms": 0})"},
    {"cbr_start", R"("traffic": {"start_s": -1})"},
    {"cbr_start_window", R"("traffic": {"start_window_s": -1})"},
    {"onoff_burst_mean", R"("traffic": {"burst_mean_s": 0})"},
    {"onoff_idle_mean", R"("traffic": {"idle_mean_s": 0})"},
    {"cbr_start", R"("traffic": {"start_s": 200})"},
    {"transport.rto_initial", R"("transport": {"rto_initial_ms": 0})"},
    {"transport.rto_min", R"("transport": {"rto_min_ms": 0})"},
    {"transport.rto_max", R"("transport": {"rto_max_ms": 0})"},
    {"transport.cwnd_init", R"("transport": {"cwnd_init": 0})"},
    {"transport.cwnd_max", R"("transport": {"cwnd_max": 0})"},
    {"transport.max_retx", R"("transport": {"max_retx": 0})"},
    {"transport.buffer_packets", R"("transport": {"buffer_packets": 0})"},
    {"transport.rto_min", R"("transport": {"enabled": true, "rto_min_ms": 2000})"},
    {"transport.rto_max", R"("transport": {"enabled": true, "rto_max_ms": 500})"},
    {"transport.cwnd_init", R"("transport": {"enabled": true, "cwnd_init": 8, "cwnd_max": 4})"},
    {"transport.buffer_packets", R"("transport": {"enabled": true, "buffer_packets": 8})"},
    {"phy.data_rate_bps", R"("radio": {"data_rate_bps": 0})"},
    {"phy.rx_range_m", R"("radio": {"rx_range_m": 0})"},
    {"phy.cs_range_m", R"("radio": {"cs_range_m": 0})"},
    {"phy.frame_loss_rate", R"("radio": {"frame_loss_rate": 1})"},
    {"phy.street_width_m", R"("urban": {"street_width_m": -1})"},
    {"phy.nlos_rx_range_m", R"("urban": {"nlos_range_m": 0})"},
    {"phy.nlos_loss_rate", R"("urban": {"nlos_loss": 1})"},
    {"phy.nlos_rx_range_m", R"("urban": {"street_width_m": 20, "nlos_range_m": 400})"},
    {"mac.ifq_capacity", R"("mac": {"ifq_capacity": 0})"},
    {"fault.crash_rate", R"("fault": {"crash_rate": -1})"},
    {"fault.downtime_mean", R"("fault": {"downtime_mean_s": 0})"},
    {"fault.link_blackouts", R"("fault": {"link_blackouts": -1})"},
    {"fault.blackout_mean", R"("fault": {"blackout_mean_s": 0})"},
    {"fault.corrupt_rate", R"("fault": {"corrupt_rate": 1.5})"},
    {"fault.corrupt_from", R"("fault": {"corrupt_from_s": -1})"},
    {"fault.corrupt_until", R"("fault": {"corrupt_until_s": -1})"},
    {"fault.partition_frac", R"("fault": {"partition_frac": 1.5})"},
    {"fault.partition_from", R"("fault": {"partition_from_s": -1})"},
    {"fault.partition_until", R"("fault": {"partition_until_s": -1})"},
    {"fault.window_from", R"("fault": {"window_from_s": -1})"},
    {"fault.window_from", R"("fault": {"crash_rate": 1, "window_from_s": 500})"},
    {"fault.corrupt_from", R"("fault": {"corrupt_rate": 0.1, "corrupt_from_s": 500})"},
    {"fault.corrupt_until",
     R"("fault": {"corrupt_rate": 0.1, "corrupt_from_s": 20, "corrupt_until_s": 10})"},
    {"fault.partition_from", R"("fault": {"partition": true, "partition_from_s": 500})"},
    {"fault.partition_until",
     R"("fault": {"partition": true, "partition_from_s": 20, "partition_until_s": 10})"},
};

/// The settings key path a violation is anchored at: the rule's own, else
/// the row's ("mobility.v_max_mps", "nodes").
std::string key_path(const Violation& rule, const Field& row) {
  if (rule.key != nullptr) return rule.key;
  const std::string section = row.section;
  return (section.empty() ? "" : section + ".") + row.key;
}

TEST(ScenarioContractDeathTest, EveryRuleIsReportedEnforcedAndAnchored) {
  for (const Violation& rule : kViolations) {
    SCOPED_TRACE(std::string(rule.field) + " <- " + rule.json);
    const Field* row = test::find_field(rule.field);
    ASSERT_NE(row, nullptr);
    ASSERT_TRUE(rule.key != nullptr || row->key != nullptr);
    const std::string anchor = "base." + key_path(rule, *row);

    const spec::ScenarioSpec s = spec::load_string(
        std::string("{\n\"name\": \"c\",\n\"base\": {\n") + rule.json + "\n}\n}", "f.json");
    bool anchored = false;
    for (const spec::Error& e : s.errors) {
      anchored = anchored || (e.line == 4 && e.key == anchor);
    }
    EXPECT_TRUE(anchored) << s.error_report();

    ASSERT_EQ(s.cells.size(), 1u);
    const ScenarioConfig& cfg = s.cells[0].config;
    bool reported = false;
    for (const ConfigError& e : check(cfg)) reported = reported || e.field == rule.field;
    EXPECT_TRUE(reported);
    EXPECT_DEATH({ Scenario run(cfg); }, rule.field);
  }
}

// A field with a range cannot land without a row above that breaks it.
TEST(ScenarioContract, EveryRangeHasAViolationRow) {
  for (const Field& f : kFields) {
    if (!f.range) continue;
    EXPECT_TRUE(std::ranges::any_of(
        kViolations, [&](const Violation& v) { return std::string_view(v.field) == f.path; }))
        << f.path << " has a range but no contract row";
  }
}

}  // namespace
}  // namespace manet
