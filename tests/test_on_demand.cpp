// Tests for the on-demand core shared by AODV, DSR, CBRP and LAR
// (routing/on_demand.hpp): the duplicate filter's suppression and its bound,
// alone and inside each protocol, the retry backoff, and the source-route
// table of CBRP and LAR.
#include "routing/on_demand.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "routing/aodv/aodv.hpp"
#include "routing/cbrp/cbrp.hpp"
#include "routing/dsr/dsr.hpp"
#include "routing/lar/lar.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;

TEST(DuplicateFilter, SuppressesWithinLifetimeOnly) {
  DuplicateFilter f(seconds(6));
  EXPECT_FALSE(f.seen(7, 1, seconds(0)));
  EXPECT_TRUE(f.seen(7, 1, seconds(5)));
  EXPECT_FALSE(f.seen(7, 2, seconds(5)));  // another id
  EXPECT_FALSE(f.seen(8, 1, seconds(5)));  // another origin
  EXPECT_FALSE(f.seen(7, 1, seconds(6)));  // expired: handled afresh...
  EXPECT_TRUE(f.seen(7, 1, seconds(11)));  // ...and remembered again
  f.clear();
  EXPECT_EQ(f.size(), 0u);
  EXPECT_FALSE(f.seen(7, 1, seconds(11)));
}

TEST(DuplicateFilter, SweepKeepsEveryLiveEntry) {
  // One request per 10 ms with a 1 s lifetime: 100 requests per lifetime.
  DuplicateFilter f(seconds(1));
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_FALSE(f.seen(1, i, milliseconds(10 * i)));
    EXPECT_LE(f.size(), 2 * 100 + 1u) << "after request " << i;
  }
  // Every request of the last lifetime is still suppressed.
  for (std::uint32_t i = 900; i < 1000; ++i) EXPECT_TRUE(f.seen(1, i, milliseconds(9990))) << i;
}

TEST(Backoff, DoublesUpToTheCap) {
  EXPECT_EQ(backoff(milliseconds(500), seconds(10), 0), milliseconds(500));
  EXPECT_EQ(backoff(milliseconds(500), seconds(10), 3), seconds(4));
  EXPECT_EQ(backoff(milliseconds(500), seconds(10), 5), seconds(10));  // 16 s, capped
  EXPECT_EQ(backoff(milliseconds(500), seconds(10), 40), seconds(10));
}

TEST(SourceRouteTable, LookupHonoursLifetimeAndLinkPurges) {
  SourceRouteTable t(seconds(60));
  t.learn({1, 2, 3, 4}, seconds(0));
  t.learn({1, 5, 6}, seconds(10));
  ASSERT_NE(t.find(4, seconds(59)), nullptr);
  EXPECT_EQ(*t.find(4, seconds(59)), (Path{1, 2, 3, 4}));
  EXPECT_EQ(t.find(4, seconds(60)), nullptr);  // expired...
  EXPECT_NE(t.find(6, seconds(60)), nullptr);  // ...but only that one
  EXPECT_EQ(t.find(7, seconds(0)), nullptr);
  t.learn({1, 3, 4}, seconds(60));  // a newer reply replaces the route
  EXPECT_EQ(*t.find(4, seconds(61)), (Path{1, 3, 4}));
  EXPECT_EQ(t.size(), 2u);

  t.purge_link(4, 3);  // the reverse direction is another link
  EXPECT_EQ(t.size(), 2u);
  t.purge_link(3, 4);
  EXPECT_EQ(t.find(4, seconds(61)), nullptr);
  EXPECT_NE(t.find(6, seconds(61)), nullptr);
  t.erase(6);
  EXPECT_EQ(t.size(), 0u);
  t.learn({1, 2}, seconds(61));
  t.clear();
  EXPECT_EQ(t.find(2, seconds(61)), nullptr);
}

// Each protocol's filter, fed one distinct request every 50 ms for more than
// three lifetimes, holds no more than twice the requests of one lifetime:
// expired entries are erased, not kept for the whole run.
struct FloodCase {
  const char* name;
  SimTime lifetime;
  TestNet::ProtocolFactory factory;
  std::function<RoutingPayloadPtr(NodeId origin, std::uint32_t id)> rreq;
  std::function<std::size_t(RoutingProtocol&)> filter_size;
};

template <class P, class Cfg>
TestNet::ProtocolFactory factory_of() {
  return [](Node& n, std::uint64_t seed) {
    return std::make_unique<P>(n, Cfg{}, RngStream(seed, "routing", n.id()));
  };
}

template <class P>
std::size_t filter_size_of(RoutingProtocol& rp) {
  return dynamic_cast<P&>(rp).seen_requests();
}

RoutingPayloadPtr source_routed_rreq(NodeId origin, std::uint32_t id) {
  auto r = std::make_unique<Rreq>();
  r->origin = origin;
  r->target = 999;
  r->req_id = static_cast<std::uint16_t>(id);
  r->record = {origin};
  return r;
}

TEST(DuplicateFilterInProtocols, SizeBoundedByTheLastLifetimeOfFloods) {
  const FloodCase cases[] = {
      {"AODV", aodv::Aodv::kRreqIdLifetime, factory_of<aodv::Aodv, aodv::Config>(),
       [](NodeId origin, std::uint32_t id) -> RoutingPayloadPtr {
         auto r = std::make_unique<aodv::Rreq>();
         r->rreq_id = id;
         r->origin = origin;
         r->dest = 999;
         r->origin_seq = id;
         return r;
       },
       filter_size_of<aodv::Aodv>},
      {"DSR", seconds(30), factory_of<dsr::Dsr, dsr::Config>(), source_routed_rreq,
       filter_size_of<dsr::Dsr>},
      {"CBRP", seconds(30), factory_of<cbrp::Cbrp, cbrp::Config>(), source_routed_rreq,
       filter_size_of<cbrp::Cbrp>},
      {"LAR", seconds(30), factory_of<lar::Lar, lar::Config>(),
       [](NodeId origin, std::uint32_t id) -> RoutingPayloadPtr {
         auto r = std::make_unique<lar::Rreq>();
         r->origin = origin;
         r->target = 999;
         r->req_id = static_cast<std::uint16_t>(id);
         r->record = {origin};
         return r;
       },
       filter_size_of<lar::Lar>},
  };
  constexpr NodeId kOrigin = 50;  // a neighbour outside the net
  const SimTime gap = milliseconds(50);
  for (const FloodCase& c : cases) {
    SCOPED_TRACE(c.name);
    TestNet net(test::line_positions(1), c.factory);
    const auto per_lifetime = static_cast<std::size_t>(c.lifetime.ns() / gap.ns());
    const auto floods = static_cast<std::uint32_t>(3 * per_lifetime + 20);
    std::size_t peak = 0;
    for (std::uint32_t id = 1; id <= floods; ++id) {
      net.run_for(gap);
      Packet pkt;
      pkt.kind = PacketKind::kRoutingControl;
      pkt.ip.src = kOrigin;
      pkt.ip.dst = kBroadcast;
      pkt.ip.ttl = 1;  // heard, not relayed
      pkt.ip.proto = IpProto::kRouting;
      pkt.routing = c.rreq(kOrigin, id);
      net.routing(0).on_control(pkt, kOrigin);
      peak = std::max(peak, c.filter_size(net.routing(0)));
    }
    EXPECT_LE(peak, 2 * per_lifetime + 1) << floods << " floods heard";
    EXPECT_GE(c.filter_size(net.routing(0)), per_lifetime) << "live entries were forgotten";
  }
}

}  // namespace
}  // namespace manet
