// Tests for the substrate extensions: channel frame-loss model, radio energy
// accounting, event tracing, and the scenario hooks that expose them.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "routing/aodv/aodv.hpp"
#include "scenario/scenario.hpp"
#include "testutil.hpp"
#include "trace/trace.hpp"

namespace manet {
namespace {

using test::TestNet;
using test::line_positions;

TestNet::ProtocolFactory aodv_factory(aodv::Config cfg = {}) {
  return [cfg](Node& n, std::uint64_t seed) {
    return std::make_unique<aodv::Aodv>(n, cfg, RngStream(seed, "routing", n.id()));
  };
}

// ---------------------------------------------------------------------------
// Frame-loss model
// ---------------------------------------------------------------------------

TEST(FrameLoss, ZeroRateIsIdeal) {
  PhyConfig phy;
  phy.frame_loss_rate = 0.0;
  TestNet net(line_positions(2), aodv_factory(), 1, phy);
  for (std::uint32_t i = 0; i < 20; ++i) net.send_data(0, 1, 0, i);
  net.run_for(seconds(10));
  EXPECT_EQ(net.stats().data_delivered(), 20u);
}

TEST(FrameLoss, LossyChannelStillDeliversViaRetries) {
  PhyConfig phy;
  phy.frame_loss_rate = 0.2;
  TestNet net(line_positions(2), aodv_factory(), 1, phy);
  for (std::uint32_t i = 0; i < 20; ++i) net.send_data(0, 1, 0, i);
  net.run_for(seconds(20));
  // MAC retransmissions recover most unicast losses.
  EXPECT_GE(net.stats().data_delivered(), 15u);
  // But the channel visibly cost extra transmissions.
  EXPECT_GT(net.stats().mac_ctrl_tx(), 3u * net.stats().data_delivered());
}

TEST(FrameLoss, ExtremeLossBreaksConnectivity) {
  PhyConfig phy;
  phy.frame_loss_rate = 0.95;
  TestNet net(line_positions(2), aodv_factory(), 1, phy);
  for (std::uint32_t i = 0; i < 10; ++i) net.send_data(0, 1, 0, i);
  net.run_for(seconds(30));
  EXPECT_LT(net.stats().data_delivered(), 10u);
  EXPECT_GT(net.stats().total_drops(), 0u);
}

// ---------------------------------------------------------------------------
// Energy accounting
// ---------------------------------------------------------------------------

TEST(Energy, TransmissionsAndReceptionsCharge) {
  TestNet net(line_positions(2), aodv_factory());
  net.send_data(0, 1);
  net.run_for(seconds(2));
  ASSERT_EQ(net.stats().data_delivered(), 1u);
  EXPECT_GT(net.stats().energy_tx_j(), 0.0);
  EXPECT_GT(net.stats().energy_rx_j(), 0.0);
  EXPECT_GT(net.stats().energy_per_delivered_mj(), 0.0);
}

TEST(Energy, ScalesWithTraffic) {
  auto run_with = [](int packets) {
    TestNet net(line_positions(2), aodv_factory());
    for (int i = 0; i < packets; ++i) net.send_data(0, 1, 0, static_cast<std::uint32_t>(i));
    net.run_for(seconds(20));
    return net.stats().energy_tx_j();
  };
  EXPECT_GT(run_with(50), run_with(5) * 2.0);
}

TEST(Energy, IdleNetworkWithReactiveProtocolUsesNone) {
  TestNet net(line_positions(3), aodv_factory());
  net.run_for(seconds(10));  // AODV is silent with no traffic
  EXPECT_DOUBLE_EQ(net.stats().energy_tx_j(), 0.0);
}

// ---------------------------------------------------------------------------
// Trace writer
// ---------------------------------------------------------------------------

TEST(Trace, RecordsLifecycleEvents) {
  const std::string path = ::testing::TempDir() + "/manet_trace_test.tr";
  {
    TraceWriter tw(path);
    ASSERT_TRUE(tw.ok());
    TestNet net(line_positions(3), aodv_factory());
    for (std::size_t i = 0; i < net.size(); ++i) net.node(i).set_trace(&tw);
    net.send_data(0, 2);
    net.run_for(seconds(3));
    ASSERT_EQ(net.stats().data_delivered(), 1u);
    EXPECT_GE(tw.lines(), 3u);  // s at 0, f at 1, r at 2
    tw.flush();
  }
  std::ifstream in(path);
  std::string line;
  int sends = 0, forwards = 0, receives = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == 's' && line.find("cbr") != std::string::npos) ++sends;
    if (line[0] == 'f') ++forwards;
    if (line[0] == 'r') ++receives;
    EXPECT_NE(line.find("RTR"), std::string::npos);
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(forwards, 1);
  EXPECT_EQ(receives, 1);
  std::remove(path.c_str());
}

TEST(Trace, DropsCarryReason) {
  const std::string path = ::testing::TempDir() + "/manet_trace_drop.tr";
  {
    TraceWriter tw(path);
    TestNet net(line_positions(2), aodv_factory());
    for (std::size_t i = 0; i < net.size(); ++i) net.node(i).set_trace(&tw);
    net.send_data(0, 55);  // unreachable
    net.run_for(seconds(60));
    tw.flush();
  }
  std::ifstream in(path);
  std::string line;
  bool saw_drop = false;
  while (std::getline(in, line)) {
    if (line[0] == 'D') {
      saw_drop = true;
      // AODV gives up on the unreachable destination through its send
      // buffer: either the retries exhaust (no-route) or the packet ages out.
      EXPECT_TRUE(line.find("no-route") != std::string::npos ||
                  line.find("buffer-timeout") != std::string::npos)
          << line;
    }
  }
  EXPECT_TRUE(saw_drop);
  std::remove(path.c_str());
}

TEST(Trace, ScenarioIntegration) {
  const std::string path = ::testing::TempDir() + "/manet_trace_scn.tr";
  ScenarioConfig cfg;
  cfg.num_nodes = 10;
  cfg.area = {500.0, 500.0};
  cfg.num_connections = 2;
  cfg.duration = seconds(20);
  cfg.trace_path = path;
  const auto r = Scenario::run_once(cfg);
  EXPECT_GT(r.data_originated, 0u);
  std::ifstream in(path);
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  EXPECT_TRUE(first[0] == 's' || first[0] == 'f' || first[0] == 'r' || first[0] == 'D');
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Exponential ON/OFF traffic
// ---------------------------------------------------------------------------

TEST(OnOffTraffic, SendsInBursts) {
  TestNet net(line_positions(2), aodv_factory());
  TrafficSource::Config cfg;
  cfg.dst = 1;
  cfg.interval = milliseconds(100);
  cfg.burst_mean = seconds(2);
  cfg.idle_mean = seconds(2);
  cfg.start = seconds(1);
  cfg.stop = seconds(60);
  TrafficSource src(net.node(0), cfg, RngStream(3, "onoff", 0));
  src.start();
  net.run_for(seconds(61));
  const auto sent = src.packets_sent();
  EXPECT_GT(sent, 0u);
  // ~Half the time is idle: strictly less than a continuous CBR would send.
  const auto cbr_equivalent = static_cast<std::uint32_t>(59.0 / 0.1);
  EXPECT_LT(sent, cbr_equivalent * 9 / 10);
  EXPECT_EQ(net.stats().data_originated(), sent);
}

TEST(OnOffTraffic, StopsAtStopTime) {
  TestNet net(line_positions(2), aodv_factory());
  TrafficSource::Config cfg;
  cfg.dst = 1;
  cfg.burst_mean = seconds(5);
  cfg.start = seconds(1);
  cfg.stop = seconds(5);
  TrafficSource src(net.node(0), cfg, RngStream(4, "onoff", 0));
  src.start();
  net.run_for(seconds(5));
  const auto at_stop = src.packets_sent();
  net.run_for(seconds(20));
  EXPECT_LE(src.packets_sent(), at_stop + 1);  // at most one in-flight tick
}

TEST(OnOffTraffic, ScenarioIntegration) {
  ScenarioConfig cfg;
  cfg.traffic = TrafficKind::kOnOff;
  cfg.num_nodes = 15;
  cfg.area = {600.0, 600.0};
  cfg.v_max = 5.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(40);
  const auto r = Scenario::run_once(cfg);
  EXPECT_GT(r.data_originated, 0u);
  EXPECT_GT(r.pdr, 0.3);
  EXPECT_NE(describe(cfg).find("traffic = exponential on/off UDP\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scenario-level mobility-kind selection
// ---------------------------------------------------------------------------

class MobilityKinds : public ::testing::TestWithParam<MobilityKind> {};

TEST_P(MobilityKinds, ScenarioRunsAndDelivers) {
  ScenarioConfig cfg;
  cfg.mobility = GetParam();
  cfg.num_nodes = 20;
  cfg.area = {600.0, 600.0};
  cfg.v_max = 5.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(40);
  const auto r = Scenario::run_once(cfg);
  EXPECT_GT(r.data_originated, 0u);
  EXPECT_GT(r.pdr, 0.3) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kinds, MobilityKinds,
                         ::testing::Values(MobilityKind::kRandomWaypoint,
                                           MobilityKind::kRandomWalk,
                                           MobilityKind::kGaussMarkov,
                                           MobilityKind::kManhattan),
                         [](const ::testing::TestParamInfo<MobilityKind>& param_info) {
                           switch (param_info.param) {
                             case MobilityKind::kRandomWaypoint: return "waypoint";
                             case MobilityKind::kRandomWalk: return "walk";
                             case MobilityKind::kGaussMarkov: return "gaussmarkov";
                             case MobilityKind::kManhattan: return "manhattan";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace manet
