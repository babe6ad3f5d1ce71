#include "routing/tora/tora.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;
using test::line_positions;

TestNet::ProtocolFactory tora_factory() {
  return [](Node& n, std::uint64_t seed) {
    return std::make_unique<tora::Tora>(n, RngStream(seed, "routing", n.id()));
  };
}

tora::Tora& as_tora(RoutingProtocol& rp) { return dynamic_cast<tora::Tora&>(rp); }

TEST(ToraHeight, LexicographicOrder) {
  using tora::Height;
  const Height dest{0, 0, false, 0, 9};
  const Height one{0, 0, false, 1, 3};
  const Height two{0, 0, false, 2, 1};
  const Height reversed{100, 5, false, 0, 5};
  EXPECT_LT(dest, one);
  EXPECT_LT(one, two);
  EXPECT_LT(two, reversed);  // a new reference level sits above everything
  EXPECT_EQ(dest, dest);
}

TEST(Tora, Name) {
  TestNet net(line_positions(2), tora_factory());
  EXPECT_STREQ(net.routing(0).name(), "TORA");
}

TEST(Tora, BeaconsBuildNeighborSets) {
  TestNet net(line_positions(3), tora_factory());
  net.run_for(seconds(4));
  EXPECT_EQ(as_tora(net.routing(1)).live_neighbors(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(as_tora(net.routing(0)).live_neighbors(), (std::vector<NodeId>{1}));
}

TEST(Tora, DeliversToDirectNeighbor) {
  TestNet net(line_positions(2), tora_factory());
  net.run_for(seconds(3));  // beacons establish adjacency
  net.send_data(0, 1);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
}

TEST(Tora, QryUpdBuildsDagAndDelivers) {
  TestNet net(line_positions(4), tora_factory());
  net.run_for(seconds(3));
  net.send_data(0, 3);
  net.run_for(seconds(5));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  // Heights decrease along the line towards the destination.
  const auto h1 = as_tora(net.routing(1)).height_for(3);
  const auto h2 = as_tora(net.routing(2)).height_for(3);
  ASSERT_TRUE(h1.has_value());
  ASSERT_TRUE(h2.has_value());
  EXPECT_LT(*h2, *h1);
  EXPECT_EQ(as_tora(net.routing(1)).downstream_for(3), 2u);
}

TEST(Tora, EstablishedDagServesLaterPackets) {
  TestNet net(line_positions(4), tora_factory());
  net.run_for(seconds(3));
  net.send_data(0, 3);
  net.run_for(seconds(5));
  const auto tx = net.stats().routing_tx();
  net.send_data(0, 3, 0, 1);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 2u);
  // Only periodic beacons in between; no new QRY/UPD wave.
  EXPECT_LE(net.stats().routing_tx() - tx, 10u);
}

TEST(Tora, HeightsAreLoopFreeOnGrid) {
  TestNet net(test::grid_positions(3, 3), tora_factory());
  net.run_for(seconds(3));
  net.send_data(0, 8);
  net.run_for(seconds(6));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  // Loop-freedom invariant: following best_downstream strictly decreases
  // the height, so walking it must terminate at the destination.
  NodeId cur = 0;
  int steps = 0;
  while (cur != 8 && steps < 10) {
    const auto next = as_tora(net.routing(cur)).downstream_for(8);
    ASSERT_TRUE(next.has_value()) << "stuck at " << cur;
    if (*next != 8) {
      const auto hc = as_tora(net.routing(cur)).height_for(8);
      const auto hn = as_tora(net.routing(*next)).height_for(8);
      ASSERT_TRUE(hc && hn);
      EXPECT_LT(*hn, *hc);
    }
    cur = *next;
    ++steps;
  }
  EXPECT_EQ(cur, 8u);
}

TEST(Tora, LinkReversalReroutesAroundBreak) {
  // Diamond: 0 - {1 (short), 3 (detour)} - 2. Traffic flows 0->1->2; when 1
  // vanishes, reversal plus the existing DAG re-route via 3.
  std::vector<Vec2> pos = {{0.0, 0.0}, {200.0, 0.0}, {400.0, 0.0}, {200.0, 150.0}};
  TestNet net(pos, tora_factory());
  net.run_for(seconds(3));
  net.send_data(0, 2);
  net.run_for(seconds(5));
  ASSERT_EQ(net.stats().data_delivered(), 1u);
  net.mobility(1).set_position({2500.0, 2500.0});
  net.run_for(seconds(4));  // beacons expire the neighbour
  net.send_data(0, 2, 0, 1);
  net.run_for(seconds(15));
  EXPECT_EQ(net.stats().data_delivered(), 2u);
}

TEST(Tora, IsolatedDestinationAgesOut) {
  TestNet net(line_positions(2), tora_factory());
  net.run_for(seconds(3));
  net.send_data(0, 60);  // no such node
  net.run_for(seconds(60));
  EXPECT_EQ(net.stats().data_delivered(), 0u);
  EXPECT_GT(net.stats().drops(DropReason::kBufferTimeout) +
                net.stats().drops(DropReason::kNoRoute),
            0u);
}

TEST(Tora, ProactiveBeaconsButReactiveRoutes) {
  TestNet net(line_positions(3), tora_factory());
  net.run_for(seconds(10));
  const auto beacons_only = net.stats().routing_tx();
  EXPECT_GT(beacons_only, 0u);  // beacons flow without traffic
  // But no heights exist yet for any destination.
  EXPECT_FALSE(as_tora(net.routing(0)).height_for(2).has_value());
}

}  // namespace
}  // namespace manet
