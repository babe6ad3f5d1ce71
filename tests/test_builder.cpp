// ScenarioBuilder: the fluent construction path must stage exactly the same
// config a careful hand-assembly produces and resolve protocol names through
// the protocol table. The scenario contract, check(), is pinned here too:
// Scenario rejects invalid configs where the run starts, with the offending
// values in the contract message (death tests — contracts abort).

#include "scenario/builder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace manet {
namespace {

TEST(ScenarioBuilder, DefaultBuildMatchesTableOneDefaults) {
  const ScenarioConfig built = ScenarioBuilder().build();
  const ScenarioConfig defaults;
  EXPECT_EQ(built.protocol, defaults.protocol);
  EXPECT_EQ(built.num_nodes, defaults.num_nodes);
  EXPECT_EQ(built.area.width, defaults.area.width);
  EXPECT_EQ(built.area.height, defaults.area.height);
  EXPECT_EQ(built.v_min, defaults.v_min);
  EXPECT_EQ(built.v_max, defaults.v_max);
  EXPECT_EQ(built.duration, defaults.duration);
  EXPECT_EQ(built.num_connections, defaults.num_connections);
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
// The scenario contract, one row per rule: check() names the field, Scenario
// dies on it, and the same value in a scenario file comes back as a loader
// error anchored at that value's line.
// ---------------------------------------------------------------------------

struct ContractRule {
  const char* field;                 ///< what check() must blame
  void (*violate)(ScenarioConfig&);  ///< pokes a violating value
  const char* json;  ///< the same violation as `base` settings, on one line
  const char* key;   ///< where the loader must anchor it
};

const std::vector<ContractRule>& contract_rules() {
  static const std::vector<ContractRule> rules = {
      {"num_nodes", [](ScenarioConfig& c) { c.num_nodes = 1; }, R"("nodes": 1)",
       "base.nodes"},
      {"area.width", [](ScenarioConfig& c) { c.area.width = 0.0; }, R"("area_m": [0, 300])",
       "base.area_m[0]"},
      {"area.height", [](ScenarioConfig& c) { c.area.height = -1.0; },
       R"("area_m": [300, -1])", "base.area_m[1]"},
      {"duration", [](ScenarioConfig& c) { c.duration = SimTime::zero(); },
       R"("duration_s": 0)", "base.duration_s"},
      {"v_min", [](ScenarioConfig& c) { c.v_min = -1.0; },
       R"("mobility": {"v_min_mps": -1})", "base.mobility.v_min_mps"},
      {"v_max", [](ScenarioConfig& c) { c.v_max = -1.0; },
       R"("static": true, "mobility": {"v_max_mps": -1})", "base.mobility.v_max_mps"},
      {"pause", [](ScenarioConfig& c) { c.pause = seconds(-1); },
       R"("mobility": {"pause_s": -1})", "base.mobility.pause_s"},
      {"mobility_warmup", [](ScenarioConfig& c) { c.mobility_warmup = seconds(-1); },
       R"("mobility": {"warmup_s": -1})", "base.mobility.warmup_s"},
      {"manhattan.block", [](ScenarioConfig& c) { c.manhattan.block = 0.0; },
       R"("mobility": {"block_m": 0})", "base.mobility.block_m"},
      {"manhattan.p_turn", [](ScenarioConfig& c) { c.manhattan.p_turn = 1.5; },
       R"("mobility": {"p_turn": 1.5})", "base.mobility.p_turn"},
      {"v_max", [](ScenarioConfig& c) { c.v_min = 9.0, c.v_max = 3.0; },
       R"("mobility": {"v_min_mps": 9, "v_max_mps": 3})", "base.mobility.v_max_mps"},
      {"payload_bytes", [](ScenarioConfig& c) { c.payload_bytes = 0; },
       R"("traffic": {"payload_bytes": 0})", "base.traffic.payload_bytes"},
      {"cbr_interval", [](ScenarioConfig& c) { c.cbr_interval = SimTime::zero(); },
       R"("traffic": {"interval_ms": 0})", "base.traffic.interval_ms"},
      {"cbr_start", [](ScenarioConfig& c) { c.cbr_start = seconds(-1); },
       R"("traffic": {"start_s": -1})", "base.traffic.start_s"},
      {"cbr_start_window", [](ScenarioConfig& c) { c.cbr_start_window = seconds(-1); },
       R"("traffic": {"start_window_s": -1})", "base.traffic.start_window_s"},
      {"onoff_burst_mean", [](ScenarioConfig& c) { c.onoff_burst_mean = SimTime::zero(); },
       R"("traffic": {"burst_mean_s": 0})", "base.traffic.burst_mean_s"},
      {"onoff_idle_mean", [](ScenarioConfig& c) { c.onoff_idle_mean = SimTime::zero(); },
       R"("traffic": {"idle_mean_s": 0})", "base.traffic.idle_mean_s"},
      {"cbr_start", [](ScenarioConfig& c) { c.cbr_start = seconds(200); },
       R"("traffic": {"start_s": 200})", "base.traffic.start_s"},
      {"transport.rto_initial",
       [](ScenarioConfig& c) { c.transport.rto_initial = SimTime::zero(); },
       R"("transport": {"rto_initial_ms": 0})", "base.transport.rto_initial_ms"},
      {"transport.rto_min", [](ScenarioConfig& c) { c.transport.rto_min = SimTime::zero(); },
       R"("transport": {"rto_min_ms": 0})", "base.transport.rto_min_ms"},
      {"transport.rto_max", [](ScenarioConfig& c) { c.transport.rto_max = SimTime::zero(); },
       R"("transport": {"rto_max_ms": 0})", "base.transport.rto_max_ms"},
      {"transport.cwnd_init", [](ScenarioConfig& c) { c.transport.cwnd_init = 0; },
       R"("transport": {"cwnd_init": 0})", "base.transport.cwnd_init"},
      {"transport.cwnd_max", [](ScenarioConfig& c) { c.transport.cwnd_max = 0; },
       R"("transport": {"cwnd_max": 0})", "base.transport.cwnd_max"},
      {"transport.max_retx", [](ScenarioConfig& c) { c.transport.max_retx = 0; },
       R"("transport": {"max_retx": 0})", "base.transport.max_retx"},
      {"transport.buffer_packets", [](ScenarioConfig& c) { c.transport.buffer_packets = 0; },
       R"("transport": {"buffer_packets": 0})", "base.transport.buffer_packets"},
      {"transport.rto_min", [](ScenarioConfig& c) {
         c.transport.enabled = true, c.transport.rto_min = seconds(2);
       },
       R"("transport": {"enabled": true, "rto_min_ms": 2000})", "base.transport.rto_min_ms"},
      {"transport.rto_max", [](ScenarioConfig& c) {
         c.transport.enabled = true, c.transport.rto_max = milliseconds(500);
       },
       R"("transport": {"enabled": true, "rto_max_ms": 500})", "base.transport.rto_max_ms"},
      {"transport.cwnd_init", [](ScenarioConfig& c) {
         c.transport.enabled = true, c.transport.cwnd_init = 8, c.transport.cwnd_max = 4;
       },
       R"("transport": {"enabled": true, "cwnd_init": 8, "cwnd_max": 4})",
       "base.transport.cwnd_init"},
      {"transport.buffer_packets", [](ScenarioConfig& c) {
         c.transport.enabled = true, c.transport.buffer_packets = 8;
       },
       R"("transport": {"enabled": true, "buffer_packets": 8})", "base.transport.buffer_packets"},
      {"phy.data_rate_bps", [](ScenarioConfig& c) { c.phy.data_rate_bps = 0.0; },
       R"("radio": {"data_rate_bps": 0})", "base.radio.data_rate_bps"},
      {"phy.rx_range_m", [](ScenarioConfig& c) { c.phy.rx_range_m = 0.0; },
       R"("radio": {"rx_range_m": 0})", "base.radio.rx_range_m"},
      {"phy.cs_range_m", [](ScenarioConfig& c) { c.phy.cs_range_m = 0.0; },
       R"("radio": {"cs_range_m": 0})", "base.radio.cs_range_m"},
      {"phy.frame_loss_rate", [](ScenarioConfig& c) { c.phy.frame_loss_rate = 1.0; },
       R"("radio": {"frame_loss_rate": 1})", "base.radio.frame_loss_rate"},
      {"phy.street_width_m", [](ScenarioConfig& c) { c.phy.street_width_m = -1.0; },
       R"("urban": {"street_width_m": -1})", "base.urban.street_width_m"},
      {"phy.nlos_rx_range_m", [](ScenarioConfig& c) { c.phy.nlos_rx_range_m = 0.0; },
       R"("urban": {"nlos_range_m": 0})", "base.urban.nlos_range_m"},
      {"phy.nlos_loss_rate", [](ScenarioConfig& c) { c.phy.nlos_loss_rate = 1.0; },
       R"("urban": {"nlos_loss": 1})", "base.urban.nlos_loss"},
      {"phy.nlos_rx_range_m", [](ScenarioConfig& c) {
         c.phy.street_width_m = 20.0, c.phy.nlos_rx_range_m = 400.0;
       },
       R"("urban": {"street_width_m": 20, "nlos_range_m": 400})", "base.urban.nlos_range_m"},
      {"mac.ifq_capacity", [](ScenarioConfig& c) { c.mac.ifq_capacity = 0; },
       R"("mac": {"ifq_capacity": 0})", "base.mac.ifq_capacity"},
      {"fault.crash_rate", [](ScenarioConfig& c) { c.fault.crash_rate = -1.0; },
       R"("fault": {"crash_rate": -1})", "base.fault.crash_rate"},
      {"fault.downtime_mean",
       [](ScenarioConfig& c) { c.fault.downtime_mean = SimTime::zero(); },
       R"("fault": {"downtime_mean_s": 0})", "base.fault.downtime_mean_s"},
      {"fault.link_blackouts", [](ScenarioConfig& c) { c.fault.link_blackouts = -1; },
       R"("fault": {"link_blackouts": -1})", "base.fault.link_blackouts"},
      {"fault.blackout_mean",
       [](ScenarioConfig& c) { c.fault.blackout_mean = SimTime::zero(); },
       R"("fault": {"blackout_mean_s": 0})", "base.fault.blackout_mean_s"},
      {"fault.corrupt_rate", [](ScenarioConfig& c) { c.fault.corrupt_rate = 1.5; },
       R"("fault": {"corrupt_rate": 1.5})", "base.fault.corrupt_rate"},
      {"fault.corrupt_from", [](ScenarioConfig& c) { c.fault.corrupt_from = seconds(-1); },
       R"("fault": {"corrupt_from_s": -1})", "base.fault.corrupt_from_s"},
      {"fault.corrupt_until", [](ScenarioConfig& c) { c.fault.corrupt_until = seconds(-1); },
       R"("fault": {"corrupt_until_s": -1})", "base.fault.corrupt_until_s"},
      {"fault.partition_frac", [](ScenarioConfig& c) { c.fault.partition_frac = 1.5; },
       R"("fault": {"partition_frac": 1.5})", "base.fault.partition_frac"},
      {"fault.partition_from", [](ScenarioConfig& c) { c.fault.partition_from = seconds(-1); },
       R"("fault": {"partition_from_s": -1})", "base.fault.partition_from_s"},
      {"fault.partition_until",
       [](ScenarioConfig& c) { c.fault.partition_until = seconds(-1); },
       R"("fault": {"partition_until_s": -1})", "base.fault.partition_until_s"},
      {"fault.window_from", [](ScenarioConfig& c) { c.fault.window_from = seconds(-1); },
       R"("fault": {"window_from_s": -1})", "base.fault.window_from_s"},
      {"fault.window_from", [](ScenarioConfig& c) {
         c.fault.crash_rate = 1.0, c.fault.window_from = seconds(500);
       },
       R"("fault": {"crash_rate": 1, "window_from_s": 500})", "base.fault.window_from_s"},
      {"fault.corrupt_from", [](ScenarioConfig& c) {
         c.fault.corrupt_rate = 0.1, c.fault.corrupt_from = seconds(500);
       },
       R"("fault": {"corrupt_rate": 0.1, "corrupt_from_s": 500})", "base.fault.corrupt_from_s"},
      {"fault.corrupt_until", [](ScenarioConfig& c) {
         c.fault.corrupt_rate = 0.1, c.fault.corrupt_from = seconds(20),
         c.fault.corrupt_until = seconds(10);
       },
       R"("fault": {"corrupt_rate": 0.1, "corrupt_from_s": 20, "corrupt_until_s": 10})",
       "base.fault.corrupt_until_s"},
      {"fault.partition_from", [](ScenarioConfig& c) {
         c.fault.partition = true, c.fault.partition_from = seconds(500);
       },
       R"("fault": {"partition": true, "partition_from_s": 500})",
       "base.fault.partition_from_s"},
      {"fault.partition_until", [](ScenarioConfig& c) {
         c.fault.partition = true, c.fault.partition_from = seconds(20),
         c.fault.partition_until = seconds(10);
       },
       R"("fault": {"partition": true, "partition_from_s": 20, "partition_until_s": 10})",
       "base.fault.partition_until_s"},
  };
  return rules;
}

TEST(ScenarioContractDeathTest, EveryRuleIsReportedEnforcedAndAnchored) {
  for (const ContractRule& rule : contract_rules()) {
    SCOPED_TRACE(std::string(rule.field) + " <- " + rule.json);
    ScenarioConfig cfg = ScenarioBuilder().build();
    rule.violate(cfg);
    bool reported = false;
    for (const ConfigError& e : check(cfg)) reported = reported || e.field == rule.field;
    EXPECT_TRUE(reported);
    EXPECT_DEATH({ Scenario s(cfg); }, rule.field);

    const spec::ScenarioSpec s = spec::load_string(
        std::string("{\n\"name\": \"c\",\n\"base\": {\n") + rule.json + "\n}\n}", "f.json");
    bool anchored = false;
    for (const spec::Error& e : s.errors) anchored = anchored || (e.line == 4 && e.key == rule.key);
    EXPECT_TRUE(anchored) << s.error_report();
  }
}

}  // namespace
}  // namespace manet
