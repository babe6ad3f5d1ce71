#include "routing/aodv/aodv.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;
using test::line_positions;

TestNet::ProtocolFactory aodv_factory(aodv::Config cfg = {}) {
  return [cfg](Node& n, std::uint64_t seed) {
    return std::make_unique<aodv::Aodv>(n, cfg, RngStream(seed, "routing", n.id()));
  };
}

aodv::Aodv& as_aodv(RoutingProtocol& rp) { return dynamic_cast<aodv::Aodv&>(rp); }

TEST(Aodv, Name) {
  TestNet net(line_positions(2), aodv_factory());
  EXPECT_STREQ(net.routing(0).name(), "AODV");
}

TEST(Aodv, DeliversOverOneHop) {
  TestNet net(line_positions(2), aodv_factory());
  net.send_data(0, 1);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.stats().avg_hops(), 1.0);
}

TEST(Aodv, DeliversOverMultipleHops) {
  TestNet net(line_positions(5), aodv_factory());
  net.send_data(0, 4);
  net.run_for(seconds(5));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.stats().avg_hops(), 4.0);
}

TEST(Aodv, InstallsForwardAndReverseRoutes) {
  TestNet net(line_positions(3), aodv_factory());
  net.send_data(0, 2);
  net.run_for(seconds(2));
  const auto fwd = as_aodv(net.routing(0)).route_to(2);
  ASSERT_TRUE(fwd.has_value());
  EXPECT_TRUE(fwd->valid);
  EXPECT_EQ(fwd->next_hop, 1u);
  EXPECT_EQ(fwd->hops, 2);
  // Reverse route at the destination (built from the RREQ).
  const auto rev = as_aodv(net.routing(2)).route_to(0);
  ASSERT_TRUE(rev.has_value());
  EXPECT_EQ(rev->next_hop, 1u);
}

TEST(Aodv, BuffersDuringDiscovery) {
  TestNet net(line_positions(4), aodv_factory());
  for (std::uint32_t i = 0; i < 5; ++i) net.send_data(0, 3, 0, i);
  net.run_for(seconds(5));
  EXPECT_EQ(net.stats().data_delivered(), 5u);
  // One discovery serves all five packets.
  EXPECT_EQ(net.stats().drops(DropReason::kNoRoute), 0u);
}

TEST(Aodv, EstablishedRouteNeedsNoNewDiscovery) {
  TestNet net(line_positions(3), aodv_factory());
  net.send_data(0, 2);
  net.run_for(seconds(3));
  const auto tx_after_discovery = net.stats().routing_tx();
  net.send_data(0, 2, 0, 1);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 2u);
  EXPECT_EQ(net.stats().routing_tx(), tx_after_discovery);
}

TEST(Aodv, ExpandingRingKeepsLocalDiscoveryCheap) {
  TestNet net(line_positions(6), aodv_factory());
  net.send_data(0, 1);  // destination is a direct neighbour
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  // TTL=1 RREQ + unicast RREP; distant nodes never rebroadcast.
  EXPECT_LE(net.stats().routing_tx(), 3u);
}

TEST(Aodv, NetworkWideSearchWithoutExpandingRing) {
  // Destination 1 is a direct neighbour of the source, but bystanders 2-3-4
  // hang off the source in a chain. With ERS the TTL=1 query never reaches
  // them; with network-wide flooding they all rebroadcast.
  const std::vector<Vec2> pos = {
      {0.0, 0.0}, {200.0, 0.0}, {0.0, 200.0}, {0.0, 400.0}, {0.0, 600.0}};
  aodv::Config flood;
  flood.expanding_ring = false;
  std::uint64_t ers_tx = 0, flood_tx = 0;
  {
    TestNet net(pos, aodv_factory());
    net.send_data(0, 1);
    net.run_for(seconds(2));
    EXPECT_EQ(net.stats().data_delivered(), 1u);
    ers_tx = net.stats().routing_tx();
  }
  {
    TestNet net(pos, aodv_factory(flood));
    net.send_data(0, 1);
    net.run_for(seconds(2));
    EXPECT_EQ(net.stats().data_delivered(), 1u);
    flood_tx = net.stats().routing_tx();
  }
  EXPECT_LE(ers_tx, 3u);      // TTL-1 RREQ + RREP
  EXPECT_GT(flood_tx, ers_tx);  // bystanders rebroadcast the flood
}

TEST(Aodv, IntermediateReplyShortensDiscovery) {
  aodv::Config with_reply;
  aodv::Config dest_only;
  dest_only.intermediate_reply = false;
  std::uint64_t tx_with = 0, tx_without = 0;
  {
    TestNet net(line_positions(3), aodv_factory(with_reply));
    net.send_data(1, 2);  // teach node 1 the route to 2
    net.run_for(seconds(2));
    net.send_data(0, 2);  // node 1 can now answer from its table
    net.run_for(seconds(3));
    EXPECT_EQ(net.stats().data_delivered(), 2u);
    tx_with = net.stats().routing_tx();
  }
  {
    TestNet net(line_positions(3), aodv_factory(dest_only));
    net.send_data(1, 2);
    net.run_for(seconds(2));
    net.send_data(0, 2);
    net.run_for(seconds(3));
    EXPECT_EQ(net.stats().data_delivered(), 2u);
    tx_without = net.stats().routing_tx();
  }
  EXPECT_LT(tx_with, tx_without);
}

TEST(Aodv, LinkBreakInvalidatesRoute) {
  TestNet net(line_positions(3), aodv_factory());
  net.send_data(0, 2);
  net.run_for(seconds(2));
  ASSERT_TRUE(as_aodv(net.routing(0)).route_to(2).has_value());
  // Destination walks away.
  net.mobility(2).set_position({2000.0, 2000.0});
  net.run_for(seconds(1));  // grid refresh
  net.send_data(0, 2, 0, 1);
  net.run_for(seconds(15));
  // Node 1 detected the break (MAC feedback) and invalidated its route.
  const auto rt = as_aodv(net.routing(1)).route_to(2);
  EXPECT_TRUE(!rt.has_value() || !rt->valid);
  // The packet was eventually dropped, not delivered.
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  EXPECT_GT(net.stats().total_drops(), 0u);
}

TEST(Aodv, RediscoversAfterTopologyChange) {
  // 0-1-2 plus detour 0-3, 3-2 (slightly longer): when 1 disappears, traffic
  // must re-route via 3.
  std::vector<Vec2> pos = {{0.0, 0.0}, {200.0, 0.0}, {400.0, 0.0}, {200.0, 150.0}};
  // dist(3,0) = 250, dist(3,2) = 250: both just in range.
  TestNet net(pos, aodv_factory());
  net.send_data(0, 2);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  net.mobility(1).set_position({2000.0, 2000.0});
  net.run_for(seconds(1));
  net.send_data(0, 2, 0, 1);
  net.run_for(seconds(10));
  EXPECT_EQ(net.stats().data_delivered(), 2u);
}

TEST(Aodv, UnreachableDestinationDropsAfterRetries) {
  TestNet net(line_positions(2), aodv_factory());
  net.send_data(0, 99);  // no such node
  net.run_for(seconds(60));
  EXPECT_EQ(net.stats().data_delivered(), 0u);
  EXPECT_GT(net.stats().drops(DropReason::kNoRoute) +
                net.stats().drops(DropReason::kBufferTimeout),
            0u);
  EXPECT_EQ(as_aodv(net.routing(0)).buffered_packets(), 0u);
}

TEST(Aodv, IntermediateDropsStrandedPacket) {
  // 0-1-2 with a standby relay 3 near 1; destination 2 drifts out of 1's
  // range. AODV does no local repair, so the packet node 1 can no longer
  // forward is dropped there, counted under the MAC's retry exhaustion.
  std::vector<Vec2> pos = {{0.0, 0.0}, {200.0, 0.0}, {400.0, 0.0}, {250.0, 150.0}};
  TestNet net(pos, aodv_factory());
  net.send_data(0, 2);
  net.run_for(seconds(2));
  ASSERT_EQ(net.stats().data_delivered(), 1u);
  ASSERT_EQ(net.stats().total_drops(), 0u);
  net.mobility(2).set_position({420.0, 280.0});  // d(1,2)=356, d(3,2)=214
  net.run_for(seconds(1));
  net.send_data(0, 2, 0, 1);
  net.run_for(milliseconds(500));
  // The stranded packet is gone and counted, though the source will
  // eventually rediscover for future packets.
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  EXPECT_EQ(net.stats().drops(DropReason::kMacRetryLimit), 1u);
  EXPECT_EQ(net.stats().total_drops(), 1u);
}

TEST(Aodv, TtlLimitsFloodRadius) {
  // With ERS off and a long line, discovery still succeeds but each RREQ is
  // processed at most once per node (duplicate suppression).
  TestNet net(line_positions(8), aodv_factory());
  net.send_data(0, 7);
  net.run_for(seconds(10));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
}

}  // namespace
}  // namespace manet
