// Traffic-source tests: CBR inter-packet timing and start/stop boundaries,
// ON/OFF burst behaviour, and source behaviour when its node crashes
// mid-flow (fault injection).

#include "app/traffic.hpp"

#include <gtest/gtest.h>

#include "routing/aodv/aodv.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;
using test::line_positions;

TestNet::ProtocolFactory aodv_factory() {
  return [](Node& n, std::uint64_t seed) {
    return std::make_unique<aodv::Aodv>(n, aodv::Config{}, RngStream(seed, "routing", n.id()));
  };
}

TrafficSource::Config cbr_config(NodeId dst) {
  TrafficSource::Config cfg;
  cfg.dst = dst;
  cfg.interval = milliseconds(100);
  cfg.start = seconds(1);
  cfg.stop = seconds(2);
  return cfg;
}

TEST(Cbr, SendsAtFixedIntervalFromStart) {
  TestNet net(line_positions(2), aodv_factory());
  TrafficSource src(net.node(0), cbr_config(1), RngStream(7, "onoff", 0));
  src.start();
  // Nothing before the start time.
  net.sim().run_until(milliseconds(999));
  EXPECT_EQ(src.packets_sent(), 0u);
  // Mid-flow: sends at 1.0, 1.1, ..., 1.5 s have fired by 1.55 s.
  net.sim().run_until(milliseconds(1550));
  EXPECT_EQ(src.packets_sent(), 6u);
  EXPECT_EQ(net.stats().data_originated(), 6u);
}

TEST(Cbr, StopBoundaryIsInclusive) {
  TestNet net(line_positions(2), aodv_factory());
  TrafficSource src(net.node(0), cbr_config(1), RngStream(7, "onoff", 0));
  src.start();
  net.run_for(seconds(5));
  // 1.0 .. 2.0 s inclusive at 100 ms spacing: 11 packets, then the first
  // tick past `stop` (2.1 s) halts the source for good.
  EXPECT_EQ(src.packets_sent(), 11u);
  EXPECT_EQ(net.stats().data_originated(), 11u);
  EXPECT_EQ(net.stats().data_delivered(), 11u);
}

TEST(Cbr, CrashedSourceMidFlowCountsAgainstPdrAndResumes) {
  TestNet net(line_positions(2), aodv_factory());
  auto cfg = cbr_config(1);
  cfg.stop = seconds(10);
  TrafficSource src(net.node(0), cfg, RngStream(7, "onoff", 0));
  src.start();

  net.sim().run_until(milliseconds(2050));
  const auto sent_before = src.packets_sent();
  const auto delivered_before = net.stats().data_delivered();
  EXPECT_GT(delivered_before, 0u);
  EXPECT_EQ(net.stats().drops(DropReason::kNodeDown), 0u);

  // Crash the source mid-flow: the application keeps offering packets (they
  // count as originated — offered load destroyed by the fault is PDR loss),
  // but every one is dropped at the node boundary and none is delivered.
  net.node(0).crash();
  net.sim().run_until(milliseconds(3050));
  EXPECT_EQ(src.packets_sent(), sent_before + 10);
  EXPECT_EQ(net.stats().data_originated(), src.packets_sent());
  EXPECT_EQ(net.stats().drops(DropReason::kNodeDown), 10u);
  EXPECT_EQ(net.stats().data_delivered(), delivered_before);

  // After restart the flow resumes (AODV re-discovers the one-hop route).
  net.node(0).restart();
  net.run_for(seconds(3));
  EXPECT_GT(net.stats().data_delivered(), delivered_before);
  EXPECT_EQ(net.stats().drops(DropReason::kNodeDown), 10u);
}

TEST(Cbr, CrashedDestinationReceivesNothing) {
  TestNet net(line_positions(2), aodv_factory());
  auto cfg = cbr_config(1);
  cfg.stop = seconds(10);
  TrafficSource src(net.node(0), cfg, RngStream(7, "onoff", 0));
  src.start();
  net.sim().run_until(milliseconds(2050));
  const auto delivered_before = net.stats().data_delivered();
  net.node(1).crash();
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), delivered_before);
  net.node(1).restart();
  net.run_for(seconds(3));
  EXPECT_GT(net.stats().data_delivered(), delivered_before);
}

TrafficSource::Config onoff_config(NodeId dst) {
  TrafficSource::Config cfg;
  cfg.dst = dst;
  cfg.interval = milliseconds(50);
  cfg.burst_mean = seconds(1);
  cfg.idle_mean = seconds(1);
  cfg.start = seconds(1);
  cfg.stop = seconds(21);
  return cfg;
}

TEST(OnOff, AlternatesBurstsWithIdlePeriods) {
  TestNet net(line_positions(2), aodv_factory());
  TrafficSource src(net.node(0), onoff_config(1), RngStream(7, "onoff", 0));
  src.start();
  net.sim().run_until(milliseconds(999));
  EXPECT_FALSE(src.sending());
  net.sim().run_until(milliseconds(1001));
  EXPECT_TRUE(src.sending());  // the first burst begins exactly at start
  net.run_for(seconds(25));
  // Over 20 s with equal mean ON and OFF periods the source must have sent
  // packets, but far fewer than a CBR source at the same interval would
  // (20 s / 50 ms = 400): the OFF gaps are real.
  EXPECT_GT(src.packets_sent(), 0u);
  EXPECT_LT(src.packets_sent(), 400u);
  EXPECT_EQ(net.stats().data_originated(), src.packets_sent());
}

TEST(OnOff, SameSeedIsReproducible) {
  std::uint32_t sent[2];
  for (int i = 0; i < 2; ++i) {
    TestNet net(line_positions(2), aodv_factory());
    TrafficSource src(net.node(0), onoff_config(1), RngStream(7, "onoff", 0));
    src.start();
    net.run_for(seconds(30));
    sent[i] = src.packets_sent();
  }
  EXPECT_EQ(sent[0], sent[1]);
}

TEST(OnOff, StopsAtStopTime) {
  TestNet net(line_positions(2), aodv_factory());
  auto cfg = onoff_config(1);
  cfg.stop = seconds(3);
  TrafficSource src(net.node(0), cfg, RngStream(7, "onoff", 0));
  src.start();
  net.run_for(seconds(4));
  const auto at_stop = src.packets_sent();
  net.run_for(seconds(10));
  EXPECT_EQ(src.packets_sent(), at_stop);
}

}  // namespace
}  // namespace manet
