#include "routing/dsdv/dsdv.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;
using test::grid_positions;
using test::line_positions;

TestNet::ProtocolFactory dsdv_factory() {
  return [](Node& n, std::uint64_t seed) {
    return std::make_unique<dsdv::Dsdv>(n, RngStream(seed, "routing", n.id()));
  };
}

dsdv::Dsdv& as_dsdv(RoutingProtocol& rp) { return dynamic_cast<dsdv::Dsdv&>(rp); }

TEST(Dsdv, Name) {
  TestNet net(line_positions(2), dsdv_factory());
  EXPECT_STREQ(net.routing(0).name(), "DSDV");
}

TEST(Dsdv, ConvergesOnLine) {
  TestNet net(line_positions(4), dsdv_factory());
  net.run_for(seconds(20));  // a full-dump round plus triggered propagation
  const auto rt = as_dsdv(net.routing(0)).route_to(3);
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->next_hop, 1u);
  EXPECT_EQ(rt->hops, 3);
}

TEST(Dsdv, ConvergesOnGrid) {
  TestNet net(grid_positions(3, 3), dsdv_factory());
  net.run_for(seconds(30));
  for (NodeId dst = 1; dst < 9; ++dst) {
    EXPECT_TRUE(as_dsdv(net.routing(0)).route_to(dst).has_value()) << "dst=" << dst;
  }
  // Corner to corner on a 3x3 4-neighbour grid is 4 hops.
  const auto rt = as_dsdv(net.routing(0)).route_to(8);
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->hops, 4);
}

TEST(Dsdv, DeliversOnceConverged) {
  TestNet net(line_positions(4), dsdv_factory());
  net.run_for(seconds(20));
  net.send_data(0, 3);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  // No discovery latency: delay is forwarding only (well under 100 ms).
  EXPECT_LT(net.stats().avg_delay_s(), 0.1);
}

TEST(Dsdv, DropsWithoutRouteBeforeConvergence) {
  TestNet net(line_positions(4), dsdv_factory());
  net.send_data(0, 3);  // t=0: tables still empty
  net.run_for(milliseconds(100));
  EXPECT_EQ(net.stats().data_delivered(), 0u);
  EXPECT_EQ(net.stats().drops(DropReason::kNoRoute), 1u);
}

TEST(Dsdv, PeriodicOverheadFlowsWithoutTraffic) {
  TestNet net(line_positions(3), dsdv_factory());
  net.run_for(seconds(35));
  // At least two full-dump rounds from each of 3 nodes.
  EXPECT_GE(net.stats().routing_tx(), 6u);
}

TEST(Dsdv, LinkBreakPropagatesBrokenRoute) {
  TestNet net(line_positions(3), dsdv_factory());
  net.run_for(seconds(20));
  ASSERT_TRUE(as_dsdv(net.routing(0)).route_to(2).has_value());
  net.mobility(2).set_position({3000.0, 3000.0});
  net.run_for(seconds(1));
  // Force traffic so the MAC notices the dead link and DSDV advertises it.
  net.send_data(0, 2);
  net.run_for(seconds(5));
  const auto rt = as_dsdv(net.routing(0)).route_to(2);
  EXPECT_FALSE(rt.has_value());
}

TEST(Dsdv, RecoveryAfterRejoin) {
  TestNet net(line_positions(3), dsdv_factory());
  net.run_for(seconds(20));
  net.mobility(2).set_position({3000.0, 3000.0});
  net.send_data(0, 2);
  net.run_for(seconds(10));
  net.mobility(2).set_position({400.0, 50.0});  // back in place
  net.run_for(seconds(40));                     // next dump round re-advertises
  net.send_data(0, 2, 0, 1);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
}

TEST(Dsdv, SequenceNumbersPreventStaleAdoption) {
  // After a break and rejoin, routes must settle on the fresh (even-seq)
  // advertisement rather than oscillate with the broken (odd-seq) one.
  TestNet net(line_positions(3), dsdv_factory());
  net.run_for(seconds(40));
  const auto rt = as_dsdv(net.routing(0)).route_to(2);
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->hops, 2);
}

}  // namespace
}  // namespace manet
