// End-to-end integration tests: full random scenarios through the whole
// stack (mobility -> channel -> MAC -> ARP -> routing -> CBR), one suite
// parameterized over all five protocols. Thresholds are deliberately loose —
// these are smoke-level correctness gates, not performance assertions (the
// scenario sweeps handle those).
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "scenario/scenario.hpp"

namespace manet {

// gtest prints the parameter in test listings and failure messages.
void PrintTo(const ProtocolEntry& e, std::ostream* os) { *os << e.name; }

namespace {

class AllProtocols : public ::testing::TestWithParam<ProtocolEntry> {};

ScenarioConfig base_config(Protocol p) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.seed = 11;
  cfg.num_nodes = 20;
  cfg.area = {800.0, 800.0};
  cfg.num_connections = 5;
  cfg.duration = seconds(60);
  return cfg;
}

TEST_P(AllProtocols, StaticNetworkDeliversWell) {
  auto cfg = base_config(GetParam().id);
  cfg.static_nodes = true;
  const auto r = Scenario::run_once(cfg);
  EXPECT_GT(r.data_originated, 500u);
  EXPECT_GE(r.pdr, 0.70) << "static PDR too low for " << GetParam().name;
  EXPECT_GT(r.delay_ms, 0.0);
}

TEST_P(AllProtocols, LowMobilityDeliversReasonably) {
  auto cfg = base_config(GetParam().id);
  cfg.v_max = 2.0;
  const auto r = Scenario::run_once(cfg);
  EXPECT_GE(r.pdr, 0.45) << "low-mobility PDR too low for " << GetParam().name;
}

TEST_P(AllProtocols, HighMobilityStillFunctions) {
  auto cfg = base_config(GetParam().id);
  cfg.v_max = 20.0;
  const auto r = Scenario::run_once(cfg);
  EXPECT_GE(r.pdr, 0.20) << "high-mobility PDR collapsed for " << GetParam().name;
  EXPECT_GT(r.data_delivered, 0u);
}

TEST_P(AllProtocols, MetricsAreConsistent) {
  const auto r = Scenario::run_once(base_config(GetParam().id));
  EXPECT_LE(r.data_delivered, r.data_originated);
  EXPECT_GE(r.nml, r.nrl * 0.999);  // NML includes NRL's packets
  EXPECT_GE(r.avg_hops, 1.0);
  EXPECT_LT(r.avg_hops, 10.0);
  // Throughput consistent with delivered count: delivered * 512 B / duration.
  const double expect_kbps =
      static_cast<double>(r.data_delivered) * 512.0 * 8.0 / 60.0 / 1e3;
  EXPECT_NEAR(r.throughput_kbps, expect_kbps, expect_kbps * 0.01 + 0.1);
}

TEST_P(AllProtocols, DeterministicAcrossRuns) {
  const auto a = Scenario::run_once(base_config(GetParam().id));
  const auto b = Scenario::run_once(base_config(GetParam().id));
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.routing_tx, b.routing_tx);
}

TEST_P(AllProtocols, ReactiveQuietWithoutTraffic) {
  auto cfg = base_config(GetParam().id);
  cfg.num_connections = 1;
  cfg.cbr_start = seconds(55);  // almost no data in 60 s
  const auto r = Scenario::run_once(cfg);
  const bool reactive = GetParam().id == Protocol::kAodv || GetParam().id == Protocol::kDsr ||
                        GetParam().id == Protocol::kLar;
  if (reactive) {
    // On-demand protocols generate (almost) no control traffic when idle.
    EXPECT_LT(r.routing_tx, 100u);
  } else {
    // Proactive (and CBRP's clustering) beacons regardless.
    EXPECT_GT(r.routing_tx, 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, AllProtocols, ::testing::ValuesIn(kProtocols),
                         [](const ::testing::TestParamInfo<ProtocolEntry>& param_info) {
                           return std::string(param_info.param.name);
                         });

// Cross-protocol shape checks (the paper's qualitative claims, loosely).
TEST(CrossProtocol, ProactiveDelayBeatsReactiveOnEstablishedRoutes) {
  auto olsr_cfg = base_config(Protocol::kOlsr);
  auto aodv_cfg = base_config(Protocol::kAodv);
  const auto olsr = Scenario::run_once(olsr_cfg);
  const auto aodv = Scenario::run_once(aodv_cfg);
  // OLSR's delivered packets see no discovery latency.
  EXPECT_LT(olsr.delay_ms, aodv.delay_ms);
}

TEST(CrossProtocol, SourceRoutingBeatsAodvOnRoutingLoad) {
  // Boukerche's headline: DSR needs fewer routing transmissions than AODV.
  // The gap needs paper-scale discovery floods, so use the Table-I network
  // size rather than the small smoke configuration.
  auto cfg = base_config(Protocol::kDsr);
  cfg.num_nodes = 50;
  cfg.area = {1000.0, 1000.0};
  cfg.v_max = 20.0;
  const auto dsr = Scenario::run_once(cfg);
  cfg.protocol = Protocol::kAodv;
  const auto aodv = Scenario::run_once(cfg);
  EXPECT_LT(dsr.nrl, aodv.nrl);
}

TEST(CrossProtocol, ProactiveRoutingLoadExceedsReactive) {
  const auto olsr = Scenario::run_once(base_config(Protocol::kOlsr));
  const auto aodv = Scenario::run_once(base_config(Protocol::kAodv));
  EXPECT_GT(olsr.nrl, aodv.nrl);
}

}  // namespace
}  // namespace manet
