// ScenarioBuilder: the fluent construction path must stage exactly the same
// config a careful hand-assembly produces, resolve protocol names through
// the registry, and reject invalid configs at build() with the offending
// values in the contract message (death tests — contracts abort).

#include "scenario/builder.hpp"

#include <gtest/gtest.h>

#include <string>

#include "fault/fault.hpp"
#include "scenario/scenario.hpp"

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
                                 .payload(256)
                                 .traffic(TrafficKind::kOnOff)
                                 .cbr_interval(seconds_f(0.5))
                                 .duration(seconds(90))
                                 .trace("/tmp/t.tr")
                                 .frame_loss(0.05)
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
  EXPECT_EQ(cfg.payload_bytes, 256u);
  EXPECT_EQ(cfg.traffic, TrafficKind::kOnOff);
  EXPECT_EQ(cfg.cbr_interval, seconds_f(0.5));
  EXPECT_EQ(cfg.duration, seconds(90));
  EXPECT_EQ(cfg.trace_path, "/tmp/t.tr");
  EXPECT_EQ(cfg.phy.frame_loss_rate, 0.05);
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

TEST(ScenarioBuilder, WithEscapeHatchReachesNestedKnobs) {
  const ScenarioConfig cfg = ScenarioBuilder()
                                 .with([](ScenarioConfig& c) { c.aodv.expanding_ring = false; })
                                 .with([](ScenarioConfig& c) { c.mac.use_rts = false; })
                                 .build();
  EXPECT_FALSE(cfg.aodv.expanding_ring);
  EXPECT_FALSE(cfg.mac.use_rts);
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
// Validation: build() must reject nonsense loudly, naming the bad value.
// ---------------------------------------------------------------------------

TEST(ScenarioBuilderDeathTest, UnknownProtocolNameListsRegisteredOnes) {
  EXPECT_DEATH((void)ScenarioBuilder().protocol("ospf").build(), "unknown protocol.*AODV");
}

TEST(ScenarioBuilderDeathTest, RejectsTooFewNodes) {
  EXPECT_DEATH((void)ScenarioBuilder().nodes(1).build(), "num_nodes");
}

TEST(ScenarioBuilderDeathTest, RejectsNonPositiveArea) {
  EXPECT_DEATH((void)ScenarioBuilder().area(0.0, 300.0).build(), "area");
}

TEST(ScenarioBuilderDeathTest, RejectsNonPositiveDuration) {
  EXPECT_DEATH((void)ScenarioBuilder().duration(SimTime::zero()).build(), "duration");
}

TEST(ScenarioBuilderDeathTest, RejectsInvertedSpeedRange) {
  EXPECT_DEATH((void)ScenarioBuilder().speed(5.0, 1.0).build(), "v_m");
}

TEST(ScenarioBuilderDeathTest, RejectsFrameLossOutsideUnitInterval) {
  EXPECT_DEATH((void)ScenarioBuilder().frame_loss(1.5).build(), "loss");
}

TEST(ScenarioBuilderDeathTest, RejectsFaultWindowPastEndOfRun) {
  FaultConfig fault;
  fault.crash_rate = 0.5;
  fault.window_from = seconds(500);  // run only lasts 150 s
  EXPECT_DEATH((void)ScenarioBuilder().fault(fault).build(), "window");
}

}  // namespace
}  // namespace manet
