#include "routing/olsr/olsr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/rng.hpp"
#include "routing/shortest_path.hpp"
#include "scenario/scenario.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;
using test::grid_positions;
using test::line_positions;

TestNet::ProtocolFactory olsr_factory(olsr::Config cfg = {}) {
  return [cfg](Node& n, std::uint64_t seed) {
    return std::make_unique<olsr::Olsr>(n, cfg, RngStream(seed, "routing", n.id()));
  };
}

olsr::Olsr& as_olsr(RoutingProtocol& rp) { return dynamic_cast<olsr::Olsr&>(rp); }

/// `r`'s cached next hop to every id below `ids` must equal shortest_paths()
/// run from scratch over `r`'s live graph. Counts the routes compared.
void expect_table_matches_oracle(olsr::Olsr& r, NodeId self, NodeId ids, std::size_t& routes) {
  const SpfResult oracle = shortest_paths(self, r.live_adjacency());
  for (NodeId dst = 0; dst < ids; ++dst) {
    const auto it = oracle.next_hop.find(dst);
    const std::optional<NodeId> want =
        it == oracle.next_hop.end() ? std::nullopt : std::optional<NodeId>(it->second);
    ASSERT_EQ(r.next_hop_to(dst), want) << "self=" << self << " dst=" << dst;
    if (want) ++routes;
  }
}

/// Advances `net` by `steps` steps of 50 ms, checking every node's table
/// against the oracle after each step.
void expect_tables_match_oracle(TestNet& net, int steps, std::size_t& routes) {
  const auto n = static_cast<NodeId>(net.size());
  for (int step = 0; step < steps; ++step) {
    net.run_for(milliseconds(50));
    for (NodeId self = 0; self < n; ++self) {
      ASSERT_NO_FATAL_FAILURE(
          expect_table_matches_oracle(as_olsr(net.routing(self)), self, n, routes))
          << "t=" << net.sim().now().ns() << "ns";
    }
  }
}

using Links = std::vector<std::pair<NodeId, olsr::LinkCode>>;

/// Hands `r` a HELLO from `from` advertising `links`.
void feed_hello(olsr::Olsr& r, NodeId from, Links links) {
  auto body = std::make_unique<olsr::Hello>();
  body->links = std::move(links);
  Packet pkt;
  pkt.routing = std::move(body);
  r.on_control(pkt, from);
}

/// Hands `r` a TC from `origin`, relayed by `from`, with TTL left to forward.
void feed_tc(olsr::Olsr& r, NodeId from, NodeId origin, std::uint16_t msg_seq,
             std::uint16_t ansn, std::vector<NodeId> selectors) {
  auto body = std::make_unique<olsr::Tc>();
  body->origin = origin;
  body->msg_seq = msg_seq;
  body->ansn = ansn;
  body->selectors = std::move(selectors);
  Packet pkt;
  pkt.kind = PacketKind::kRoutingControl;
  pkt.ip.src = origin;
  pkt.ip.dst = kBroadcast;
  pkt.ip.ttl = 255;
  pkt.ip.proto = IpProto::kRouting;
  pkt.routing = std::move(body);
  r.on_control(pkt, from);
}

/// A node that only listens: records the (origin, msg_seq) of every TC it
/// hears, to observe what an OLSR neighbour transmits.
class TcListener final : public RoutingProtocol {
 public:
  explicit TcListener(Node& node) : RoutingProtocol(node) {}

  void start() override {}
  void route_packet(Packet pkt) override { node_.drop(pkt, DropReason::kNoRoute); }
  void on_control(const Packet& pkt, NodeId) override {
    if (const auto* tc = dynamic_cast<const olsr::Tc*>(pkt.routing.get())) {
      heard.emplace_back(tc->origin, tc->msg_seq);
    }
  }
  void on_node_restart() override { heard.clear(); }
  [[nodiscard]] const char* name() const override { return "LISTENER"; }

  [[nodiscard]] std::size_t times_heard(NodeId origin, std::uint16_t msg_seq) const {
    return static_cast<std::size_t>(
        std::count(heard.begin(), heard.end(), std::pair<NodeId, std::uint16_t>{origin, msg_seq}));
  }

  std::vector<std::pair<NodeId, std::uint16_t>> heard;
};

TEST(Olsr, Name) {
  TestNet net(line_positions(2), olsr_factory());
  EXPECT_STREQ(net.routing(0).name(), "OLSR");
}

TEST(Olsr, LinkSensingFindsSymmetricNeighbors) {
  TestNet net(line_positions(3), olsr_factory());
  net.run_for(seconds(6));  // a few HELLO rounds
  EXPECT_EQ(as_olsr(net.routing(0)).sym_neighbors(), (std::vector<NodeId>{1}));
  EXPECT_EQ(as_olsr(net.routing(1)).sym_neighbors(), (std::vector<NodeId>{0, 2}));
}

TEST(Olsr, MiddleNodeBecomesMpr) {
  TestNet net(line_positions(3), olsr_factory());
  net.run_for(seconds(8));
  EXPECT_EQ(as_olsr(net.routing(0)).mprs(), (std::vector<NodeId>{1}));
  EXPECT_EQ(as_olsr(net.routing(2)).mprs(), (std::vector<NodeId>{1}));
  const auto sel = as_olsr(net.routing(1)).mpr_selectors();
  EXPECT_EQ(sel, (std::vector<NodeId>{0, 2}));
}

TEST(Olsr, RoutingTableReachesAllNodes) {
  TestNet net(line_positions(5), olsr_factory());
  net.run_for(seconds(15));  // HELLOs + TC propagation
  auto& r0 = as_olsr(net.routing(0));
  for (NodeId dst = 1; dst <= 4; ++dst) {
    const auto nh = r0.next_hop_to(dst);
    ASSERT_TRUE(nh.has_value()) << "dst=" << dst;
    EXPECT_EQ(*nh, 1u);
  }
}

TEST(Olsr, DeliversDataProactively) {
  TestNet net(line_positions(4), olsr_factory());
  net.run_for(seconds(15));
  net.send_data(0, 3);
  net.run_for(seconds(2));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
  // Route was pre-computed: only forwarding latency.
  EXPECT_LT(net.stats().avg_delay_s(), 0.1);
}

TEST(Olsr, NoRouteBeforeConvergence) {
  TestNet net(line_positions(4), olsr_factory());
  net.send_data(0, 3);
  net.run_for(milliseconds(50));
  EXPECT_EQ(net.stats().drops(DropReason::kNoRoute), 1u);
}

TEST(Olsr, ControlTrafficFlowsWithoutData) {
  TestNet net(line_positions(4), olsr_factory());
  net.run_for(seconds(20));
  EXPECT_GT(net.stats().routing_tx(), 20u);  // HELLOs + TCs
}

TEST(Olsr, BrokenLinkExpiresFromTables) {
  TestNet net(line_positions(3), olsr_factory());
  net.run_for(seconds(10));
  ASSERT_TRUE(as_olsr(net.routing(0)).next_hop_to(2).has_value());
  net.mobility(2).set_position({3000.0, 3000.0});
  // Staleness propagates in stages: node 1's link set holds node 2 for
  // neighb_hold (6 s), during which its HELLOs keep advertising the dead
  // link to node 0, whose 2-hop entry then needs its own hold to expire —
  // ~12 s worst case plus TC refresh jitter.
  net.run_for(seconds(10));
  EXPECT_FALSE(as_olsr(net.routing(1)).next_hop_to(2).has_value());
  net.run_for(seconds(10));
  EXPECT_FALSE(as_olsr(net.routing(0)).next_hop_to(2).has_value());
}

TEST(Olsr, RejoinedNodeRelearned) {
  TestNet net(line_positions(3), olsr_factory());
  net.run_for(seconds(10));
  net.mobility(2).set_position({3000.0, 3000.0});
  net.run_for(seconds(10));
  net.mobility(2).set_position({400.0, 50.0});
  net.run_for(seconds(10));
  EXPECT_TRUE(as_olsr(net.routing(0)).next_hop_to(2).has_value());
  net.send_data(0, 2);
  net.run_for(seconds(1));
  EXPECT_EQ(net.stats().data_delivered(), 1u);
}

TEST(Olsr, GridRoutesAreShortest) {
  TestNet net(grid_positions(3, 3), olsr_factory());
  net.run_for(seconds(20));
  // Corner to corner: 4 hops on the 4-neighbour grid.
  net.send_data(0, 8);
  net.run_for(seconds(1));
  ASSERT_EQ(net.stats().data_delivered(), 1u);
  EXPECT_DOUBLE_EQ(net.stats().avg_hops(), 4.0);
}

TEST(Olsr, MprFloodingCheaperThanClassic) {
  // Compare TC forwarding cost with and without the MPR rule on a dense grid.
  olsr::Config classic;
  classic.mpr_flooding = false;
  std::uint64_t mpr_tx = 0, classic_tx = 0;
  {
    TestNet net(grid_positions(4, 4, 150.0), olsr_factory());
    net.run_for(seconds(30));
    mpr_tx = net.stats().routing_tx();
  }
  {
    TestNet net(grid_positions(4, 4, 150.0), olsr_factory(classic));
    net.run_for(seconds(30));
    classic_tx = net.stats().routing_tx();
  }
  EXPECT_LT(mpr_tx, classic_tx);
}

TEST(Olsr, CachedTableMatchesOracleOnRandomField) {
  for (const std::uint64_t seed : {1u, 2u}) {
    RngStream rng(seed, "field");
    std::vector<Vec2> positions;
    for (int i = 0; i < 30; ++i) {
      positions.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
    }
    TestNet net(positions, olsr_factory(), seed);
    std::size_t routes = 0;
    expect_tables_match_oracle(net, 600, routes);  // 30 s
    EXPECT_GT(routes, 30u * 29u * 600u / 4) << "seed=" << seed;
  }
}

TEST(Olsr, CachedTableMatchesOracleAcrossExpiry) {
  // Node 2 leaves, its link and 2-hop entries expire in stages without any
  // message announcing it, then it returns: the cached tables must follow
  // each expiry at the instant it happens.
  TestNet net(line_positions(3), olsr_factory());
  std::size_t routes = 0;
  expect_tables_match_oracle(net, 200, routes);  // 10 s
  ASSERT_TRUE(as_olsr(net.routing(0)).next_hop_to(2).has_value());
  net.mobility(2).set_position({3000.0, 3000.0});
  expect_tables_match_oracle(net, 400, routes);  // 20 s
  EXPECT_FALSE(as_olsr(net.routing(0)).next_hop_to(2).has_value());
  net.mobility(2).set_position({400.0, 50.0});
  expect_tables_match_oracle(net, 200, routes);  // 10 s
  EXPECT_TRUE(as_olsr(net.routing(0)).next_hop_to(2).has_value());
  EXPECT_GT(routes, 0u);
}

TEST(Olsr, CachedTableFollowsEachInvalidationRule) {
  // A lone node fed hand-made HELLOs and TCs at chosen instants, so each
  // rule is exercised on its own, including two that simulations rarely
  // reach: a HELLO reporting a link lost (sent only in the second before the
  // sender purges that link) and a TC tuple coming back with its old
  // selectors before purge_expired() erases it.
  TestNet net(line_positions(1), olsr_factory());
  auto& r = as_olsr(net.routing(0));
  std::uint16_t tc_seq = 0;
  const auto hello = [&](NodeId from, std::vector<std::pair<NodeId, olsr::LinkCode>> links) {
    auto body = std::make_unique<olsr::Hello>();
    body->links = std::move(links);
    Packet pkt;
    pkt.routing = std::move(body);
    r.on_control(pkt, from);
  };
  const auto tc = [&](NodeId origin, std::vector<NodeId> selectors) {
    auto body = std::make_unique<olsr::Tc>();
    body->origin = origin;
    body->msg_seq = tc_seq++;
    body->selectors = std::move(selectors);
    Packet pkt;
    pkt.routing = std::move(body);
    r.on_control(pkt, 1);
  };
  std::size_t routes = 0;
  // Checks the table every 50 ms up to `ms` of simulated time, then at `ms`.
  const auto run_to = [&](std::int64_t ms) {
    while (net.sim().now() < milliseconds(ms)) {
      net.sim().run_until(std::min(net.sim().now() + milliseconds(50), milliseconds(ms)));
      ASSERT_NO_FATAL_FAILURE(expect_table_matches_oracle(r, 0, 6, routes))
          << "t=" << net.sim().now().ns() << "ns";
    }
  };
  using olsr::LinkCode;
  const std::vector<std::pair<NodeId, LinkCode>> with_2 = {{0, LinkCode::kSym},
                                                           {2, LinkCode::kSym}};
  const std::optional<NodeId> via_1 = 1;

  ASSERT_NO_FATAL_FAILURE(run_to(500));
  hello(5, {});      // asymmetric only: no route
  hello(1, with_2);  // link 1 becomes symmetric, 2-hop tuple 1 -> 2 is new
  tc(3, {2});        // TC origin 3 becomes live: 3 <-> 2, expires at 15.5 s
  ASSERT_NO_FATAL_FAILURE(run_to(550));
  EXPECT_EQ(r.next_hop_to(3), via_1);
  EXPECT_FALSE(r.next_hop_to(5).has_value());
  hello(5, {{0, LinkCode::kSym}});  // link 5 becomes symmetric
  ASSERT_NO_FATAL_FAILURE(run_to(600));
  EXPECT_EQ(r.next_hop_to(5), std::optional<NodeId>(5));
  ASSERT_NO_FATAL_FAILURE(run_to(2500));
  hello(1, {{0, LinkCode::kSym}, {2, LinkCode::kLost}});  // live 2-hop tuple erased
  ASSERT_NO_FATAL_FAILURE(run_to(2550));
  EXPECT_FALSE(r.next_hop_to(2).has_value());
  for (std::int64_t ms = 4500; ms <= 14500; ms += 2000) {
    hello(1, with_2);  // 2-hop tuple live again, then only refreshed
    ASSERT_NO_FATAL_FAILURE(run_to(ms + 50));
    EXPECT_EQ(r.next_hop_to(2), via_1);
  }
  ASSERT_NO_FATAL_FAILURE(run_to(15550));  // TC tuple expired at 15.5 s
  EXPECT_FALSE(r.next_hop_to(3).has_value());
  tc(3, {2});  // live again with the same selectors, before the 16 s purge
  ASSERT_NO_FATAL_FAILURE(run_to(15600));
  EXPECT_EQ(r.next_hop_to(3), via_1);
  tc(3, {4});  // selector set differs: 3 <-> 4 only, 4 unreachable
  ASSERT_NO_FATAL_FAILURE(run_to(15650));
  EXPECT_FALSE(r.next_hop_to(3).has_value());
  ASSERT_NO_FATAL_FAILURE(run_to(25000));  // everything expires
  EXPECT_FALSE(r.next_hop_to(1).has_value());
  // A TC listing this node as a selector adds an edge from it to the TC's
  // origin, after its link-set edges: 4 is two hops away via 5 and via 3,
  // and the smaller first hop wins.
  hello(5, {{0, LinkCode::kSym}, {4, LinkCode::kSym}});
  tc(3, {0, 4});
  ASSERT_NO_FATAL_FAILURE(run_to(25050));
  EXPECT_EQ(r.next_hop_to(4), std::optional<NodeId>(3));
  r.on_node_restart();  // a cold reboot forgets every link
  ASSERT_NO_FATAL_FAILURE(run_to(25100));
  EXPECT_FALSE(r.next_hop_to(4).has_value());
  EXPECT_GT(routes, 0u);
}

TEST(Olsr, LapsedLinkAdvertisedAsLostUntilTick) {
  // The 1 Hz tick erases a link only once it has lapsed both ways; until
  // that tick, HELLOs keep advertising it as LOST.
  TestNet net(line_positions(1), olsr_factory());
  auto& r = as_olsr(net.routing(0));
  using olsr::LinkCode;
  net.sim().run_until(milliseconds(500));
  feed_hello(r, 1, {{0, LinkCode::kSym}});  // symmetric until 6.5 s
  feed_hello(r, 2, {});                     // asymmetric until 6.5 s
  net.sim().run_until(milliseconds(6400));
  EXPECT_EQ(r.advertised_links(), (Links{{1, LinkCode::kSym}, {2, LinkCode::kAsym}}));
  net.sim().run_until(milliseconds(6500));
  EXPECT_EQ(r.advertised_links(), (Links{{1, LinkCode::kLost}, {2, LinkCode::kLost}}));
  net.sim().run_until(milliseconds(6999));
  EXPECT_EQ(r.advertised_links(), (Links{{1, LinkCode::kLost}, {2, LinkCode::kLost}}));
  EXPECT_EQ(r.state_entries().links, 2u);
  net.sim().run_until(milliseconds(7000));  // the tick
  EXPECT_TRUE(r.advertised_links().empty());
  EXPECT_EQ(r.state_entries().links, 0u);
}

TEST(Olsr, TickDropsTwoHopSetOfNonSymmetricNeighbor) {
  // 1 and 3 stop listing this node while still advertising a 2-hop
  // neighbour, so their links turn asymmetric at 6.5 s with 2-hop tuples
  // held until 10.5 s. 1 turns symmetric again before the 7 s tick and
  // gets its tuple back; 3 does so after the tick and does not.
  TestNet net(line_positions(1), olsr_factory());
  auto& r = as_olsr(net.routing(0));
  using olsr::LinkCode;
  const auto has_edge = [&](NodeId u, NodeId v) {
    const auto adj = r.live_adjacency();
    const auto it = adj.find(u);
    return it != adj.end() && std::count(it->second.begin(), it->second.end(), v) > 0;
  };
  net.sim().run_until(milliseconds(500));
  feed_hello(r, 1, {{0, LinkCode::kSym}});
  feed_hello(r, 3, {{0, LinkCode::kSym}});
  net.sim().run_until(milliseconds(4500));
  feed_hello(r, 1, {{2, LinkCode::kSym}});
  feed_hello(r, 3, {{4, LinkCode::kSym}});
  net.sim().run_until(milliseconds(4550));
  EXPECT_EQ(r.next_hop_to(2), std::optional<NodeId>(1));
  EXPECT_EQ(r.next_hop_to(4), std::optional<NodeId>(3));
  net.sim().run_until(milliseconds(6600));
  EXPECT_FALSE(r.next_hop_to(2).has_value());
  EXPECT_FALSE(r.next_hop_to(4).has_value());
  feed_hello(r, 1, {{0, LinkCode::kSym}});
  net.sim().run_until(milliseconds(6650));
  EXPECT_TRUE(has_edge(1, 2));
  EXPECT_EQ(r.next_hop_to(2), std::optional<NodeId>(1));
  net.sim().run_until(milliseconds(7500));
  feed_hello(r, 3, {{0, LinkCode::kSym}});
  net.sim().run_until(milliseconds(7550));
  EXPECT_EQ(r.next_hop_to(3), std::optional<NodeId>(3));
  EXPECT_FALSE(has_edge(3, 4));
  EXPECT_FALSE(r.next_hop_to(4).has_value());
  EXPECT_EQ(r.state_entries().twohop, 1u);  // only 1 -> 2
}

TEST(Olsr, DuplicateFilterHoldsEachTcForDupHold) {
  // Node 0 runs OLSR; node 1 only listens, so every TC it hears is one node
  // 0 sent. Hand-fed TCs arrive at node 0 as if relayed by a neighbour that
  // selected it as MPR, so each one processed is also forwarded.
  olsr::Config cfg;
  cfg.neighb_hold = seconds(120);  // one HELLO keeps the relay for the test
  TestNet net(line_positions(2), [cfg](Node& n, std::uint64_t seed) -> std::unique_ptr<RoutingProtocol> {
    if (n.id() == 1) return std::make_unique<TcListener>(n);
    return std::make_unique<olsr::Olsr>(n, cfg, RngStream(seed, "routing", n.id()));
  });
  auto& r = as_olsr(net.routing(0));
  const auto& listener = dynamic_cast<const TcListener&>(net.routing(1));
  const std::optional<NodeId> via_5 = 5;
  net.sim().run_until(milliseconds(500));
  feed_hello(r, 5, {{0, olsr::LinkCode::kMpr}});

  feed_tc(r, 5, 3, 7, 0, {5});  // 3 <-> 5: processed and forwarded
  net.sim().run_until(milliseconds(1000));
  EXPECT_EQ(r.next_hop_to(3), via_5);
  EXPECT_EQ(listener.times_heard(3, 7), 1u);
  feed_tc(r, 5, 3, 7, 0, {4});  // same message again, within dup_hold
  net.sim().run_until(milliseconds(1500));
  EXPECT_EQ(r.next_hop_to(3), via_5) << "a duplicate was processed";
  EXPECT_EQ(listener.times_heard(3, 7), 1u) << "a duplicate was forwarded";

  net.sim().run_until(milliseconds(30'400));  // topology tuple lapsed at 15.5 s
  EXPECT_FALSE(r.next_hop_to(3).has_value());
  feed_tc(r, 5, 3, 7, 0, {5});  // still a duplicate until 30.5 s
  net.sim().run_until(milliseconds(30'450));
  EXPECT_FALSE(r.next_hop_to(3).has_value());
  net.sim().run_until(milliseconds(30'600));
  feed_tc(r, 5, 3, 7, 0, {5});  // dup_hold has passed: new again
  net.sim().run_until(milliseconds(30'650));
  EXPECT_EQ(r.next_hop_to(3), via_5);
  EXPECT_EQ(listener.times_heard(3, 7), 2u);

  // msg_seq wraps: 0 after 65535 is a new message, not a stale one.
  feed_tc(r, 5, 6, 65535, 0, {5});
  net.sim().run_until(milliseconds(30'700));
  EXPECT_EQ(r.next_hop_to(6), via_5);
  feed_tc(r, 5, 6, 0, 1, {4});  // 6 <-> 4 only: 6 unreachable once processed
  net.sim().run_until(milliseconds(30'750));
  EXPECT_FALSE(r.next_hop_to(6).has_value());
  EXPECT_EQ(listener.times_heard(6, 65535), 1u);
  EXPECT_EQ(listener.times_heard(6, 0), 1u);

  // Node 0's own TC echoed back by a neighbour is neither processed nor
  // forwarded, and leaves no record.
  const auto own = std::find_if(listener.heard.begin(), listener.heard.end(),
                                [](const auto& h) { return h.first == 0; });
  ASSERT_NE(own, listener.heard.end()) << "node 0 originated no TC";
  const std::uint16_t own_seq = own->second;
  const std::size_t origins = r.state_entries().origins;
  feed_tc(r, 5, 0, own_seq, 0, {5});
  net.sim().run_until(milliseconds(30'800));
  EXPECT_EQ(listener.times_heard(0, own_seq), 1u);
  EXPECT_EQ(r.state_entries().origins, origins);
}

TEST(Olsr, StateStaysBoundedUnderMobilityAndCrashes) {
  // Expired entries are dropped lazily (on the next HELLO from a neighbour,
  // on the next TC from an origin), so check that no table grows past what
  // the network can hold: 30 mobile nodes crashing and restarting for 300 s.
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kOlsr;
  cfg.num_nodes = 30;
  cfg.v_max = 10.0;
  cfg.duration = seconds(300);
  cfg.fault.crash_rate = 2.0;
  cfg.fault.downtime_mean = seconds(20);
  Scenario sc(cfg);
  sc.build();
  const std::size_t n = sc.size();
  std::size_t most_origins = 0;
  for (std::int64_t t = 10; t <= 300; t += 10) {
    sc.sim().run_until(seconds(t));
    for (std::size_t i = 0; i < n; ++i) {
      const auto e = as_olsr(sc.routing(i)).state_entries();
      ASSERT_LE(e.links, n) << "node " << i << " t=" << t << "s";
      ASSERT_LE(e.max_twohop, n) << "node " << i << " t=" << t << "s";
      ASSERT_LE(e.selectors, e.links) << "node " << i << " t=" << t << "s";
      ASSERT_LE(e.origins, n) << "node " << i << " t=" << t << "s";
      ASSERT_LE(e.max_dups, 8u) << "node " << i << " t=" << t << "s";
      most_origins = std::max(most_origins, e.origins);
    }
  }
  EXPECT_GT(sc.stats().crashes(), 0u);
  EXPECT_GT(most_origins, n / 2);  // the tables were exercised
}

}  // namespace
}  // namespace manet
