#include "routing/dsr/dsr.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;
using test::line_positions;

TestNet::ProtocolFactory dsr_factory(dsr::Config cfg = {}) {
  return [cfg](Node& n, std::uint64_t seed) {
    return std::make_unique<dsr::Dsr>(n, cfg, RngStream(seed, "routing", n.id()));
  };
}

dsr::Dsr& as_dsr(RoutingProtocol& rp) { return dynamic_cast<dsr::Dsr&>(rp); }

TEST(Dsr, Name) {
  TestNet net(line_positions(2), dsr_factory());
  EXPECT_STREQ(net.routing(0).name(), "DSR");
}

TEST(Dsr, DeliversOverOneHop) {
  TestNet net(line_positions(2), dsr_factory());
  net.send_data(0, 1);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
}

TEST(Dsr, DeliversOverMultipleHops) {
  TestNet net(line_positions(5), dsr_factory());
  net.send_data(0, 4);
  net.run_for(seconds(5));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.stats().avg_hops(), 4.0);
}

TEST(Dsr, DiscoveryPopulatesCache) {
  TestNet net(line_positions(4), dsr_factory());
  net.send_data(0, 3);
  net.run_for(seconds(3));
  const auto path = as_dsr(net.routing(0)).cache().find(3, net.sim().now());
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (Path{0, 1, 2, 3}));
}

TEST(Dsr, IntermediateNodesLearnReversePath) {
  TestNet net(line_positions(4), dsr_factory());
  net.send_data(0, 3);
  net.run_for(seconds(3));
  // Node 2 relayed the RREQ and cached a route back to the originator.
  const auto back = as_dsr(net.routing(2)).cache().find(0, net.sim().now());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->front(), 2u);
  EXPECT_EQ(back->back(), 0u);
}

TEST(Dsr, CachedRouteSkipsDiscovery) {
  TestNet net(line_positions(3), dsr_factory());
  net.send_data(0, 2);
  net.run_for(seconds(3));
  const auto tx = net.stats().routing_tx();
  net.send_data(0, 2, 0, 1);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 2u);
  EXPECT_EQ(net.stats().routing_tx(), tx);
}

TEST(Dsr, NonPropagatingQueryAnswersNeighborCheaply) {
  TestNet net(line_positions(6), dsr_factory());
  net.send_data(0, 1);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  EXPECT_LE(net.stats().routing_tx(), 3u);  // ring-0 RREQ + RREP
}

TEST(Dsr, IntermediateReplyFromCache) {
  dsr::Config plain;
  dsr::Config no_cache_reply;
  no_cache_reply.intermediate_reply = false;
  std::uint64_t with = 0, without = 0;
  for (int variant = 0; variant < 2; ++variant) {
    TestNet net(line_positions(4), dsr_factory(variant == 0 ? plain : no_cache_reply));
    net.send_data(1, 3);  // node 1 learns [1,2,3]
    net.run_for(seconds(3));
    net.send_data(0, 3);  // node 1 may splice [0,1]+[1,2,3]
    net.run_for(seconds(3));
    EXPECT_EQ(net.stats().data_delivered(), 2u);
    (variant == 0 ? with : without) = net.stats().routing_tx();
  }
  EXPECT_LT(with, without);
}

TEST(Dsr, SalvageReroutesStrandedPacket) {
  // 0-1-2 with a standby relay 3 near 1 and 2.
  std::vector<Vec2> pos = {{0.0, 0.0}, {200.0, 0.0}, {400.0, 0.0}, {250.0, 150.0}};
  TestNet net(pos, dsr_factory());
  net.send_data(0, 2);
  net.run_for(seconds(2));
  ASSERT_EQ(net.stats().data_delivered(), 1u);
  // Give node 1 an alternative path and break the 1->2 link by moving 2 to a
  // spot only 3 can reach.
  net.mobility(2).set_position({420.0, 280.0});  // d(1,2)=356, d(3,2)=214
  net.run_for(seconds(1));
  as_dsr(net.routing(1)).cache().add({1, 3, 2}, net.sim().now());
  net.send_data(0, 2, 0, 1);
  net.run_for(seconds(5));
  EXPECT_EQ(net.stats().data_delivered(), 2u);
}

TEST(Dsr, RouteErrorReachesSourceAndPurgesLink) {
  dsr::Config cfg;
  cfg.salvage = false;
  std::vector<Vec2> pos = {{0.0, 0.0}, {200.0, 0.0}, {400.0, 0.0}, {200.0, 150.0}};
  // Detour: 0-3 (250 m) and 3-2 (250 m).
  TestNet net(pos, dsr_factory(cfg));
  net.send_data(0, 2);
  net.run_for(seconds(2));
  ASSERT_EQ(net.stats().data_delivered(), 1u);
  net.mobility(1).set_position({2000.0, 2000.0});
  net.run_for(seconds(1));
  net.send_data(0, 2, 0, 1);
  net.run_for(seconds(15));
  // Source learned of the break, rediscovered via 3, and delivered.
  EXPECT_EQ(net.stats().data_delivered(), 2u);
  const auto path = as_dsr(net.routing(0)).cache().find(2, net.sim().now());
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (Path{0, 3, 2}));
}

TEST(Dsr, UnreachableTargetGivesUp) {
  TestNet net(line_positions(2), dsr_factory());
  net.send_data(0, 50);
  net.run_for(seconds(120));
  EXPECT_EQ(net.stats().data_delivered(), 0u);
  EXPECT_GT(net.stats().drops(DropReason::kNoRoute) +
                net.stats().drops(DropReason::kBufferTimeout),
            0u);
}

TEST(Dsr, SourceRouteBytesGrowWithPathLength) {
  // Longer paths mean bigger headers: verify via delivered-byte accounting.
  TestNet short_net(line_positions(2), dsr_factory());
  short_net.send_data(0, 1);
  short_net.run_for(seconds(2));
  TestNet long_net(line_positions(6), dsr_factory());
  long_net.send_data(0, 5);
  long_net.run_for(seconds(5));
  EXPECT_EQ(short_net.stats().data_delivered(), 1u);
  EXPECT_EQ(long_net.stats().data_delivered(), 1u);
}

}  // namespace
}  // namespace manet
