// Loop-freedom oracle for AODV and DSDV.
//
// Both protocols are loop-free by construction: destination sequence
// numbers order every route update, so no node adopts a next hop that leads
// back through itself. The oracle checks that property on the live tables,
// not on delivered packets: once per simulated second it follows every
// node's next hop toward each flow destination and asserts the walk ends
// (at the destination or at a node without a route) without revisiting a
// node. For AODV only valid routes are followed; invalidated entries are
// kept for their sequence numbers but forward nothing.
//
// The field is the high-mobility strip (40 nodes, 1500 x 300 m, pause 0,
// 0.1-20 m/s, 10 flows), where route breaks and repairs are most frequent.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "routing/aodv/aodv.hpp"
#include "routing/dsdv/dsdv.hpp"
#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"

namespace manet {
namespace {

/// Next hop of `rp` toward `dst`, or nullopt when the node would not forward.
std::optional<NodeId> next_hop(RoutingProtocol& rp, NodeId dst) {
  if (const auto* aodv = dynamic_cast<const aodv::Aodv*>(&rp)) {
    const auto rt = aodv->route_to(dst);
    if (!rt || !rt->valid) return std::nullopt;
    return rt->next_hop;
  }
  const auto rt = dynamic_cast<const dsdv::Dsdv&>(rp).route_to(dst);
  if (!rt) return std::nullopt;
  return rt->next_hop;
}

struct LoopStats {
  std::uint64_t samples = 0;
  std::uint64_t multi_hop_walks = 0;  ///< walks that took two or more hops
};

/// Walk every node's next-hop chain toward `dst`; fail on a revisit.
void expect_loop_free(Scenario& sc, NodeId dst, std::vector<std::uint64_t>& mark,
                      std::uint64_t& stamp, LoopStats& stats, const std::string& where) {
  for (NodeId start = 0; start < sc.size(); ++start) {
    ++stamp;
    std::vector<NodeId> path{start};
    NodeId cur = start;
    mark[cur] = stamp;
    while (cur != dst) {
      const std::optional<NodeId> nh = next_hop(sc.routing(cur), dst);
      if (!nh) break;
      path.push_back(*nh);
      if (mark[*nh] == stamp) {
        std::string hops;
        for (const NodeId v : path) {
          hops += ' ';
          hops += std::to_string(v);
        }
        ADD_FAILURE() << where << ": routing loop toward " << dst << ":" << hops;
        return;
      }
      mark[*nh] = stamp;
      cur = *nh;
    }
    if (path.size() > 2) ++stats.multi_hop_walks;
  }
}

LoopStats check_protocol(const char* protocol) {
  LoopStats stats;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Scenario sc(ScenarioBuilder()
                    .protocol(protocol)
                    .seed(seed)
                    .nodes(40)
                    .area(1500.0, 300.0)
                    .pause(SimTime::zero())
                    .speed(0.1, 20.0)
                    .connections(10)
                    .duration(seconds(60))
                    .build());
    sc.build();
    std::vector<std::uint64_t> mark(sc.size(), 0);
    std::uint64_t stamp = 0;
    for (int t = 1; t <= 60; ++t) {
      sc.sim().run_until(seconds(t));
      for (const auto& [src, dst] : sc.flows()) {
        expect_loop_free(sc, dst, mark, stamp, stats,
                         std::string(protocol) + " seed " + std::to_string(seed) + " t=" +
                             std::to_string(t) + "s");
      }
      ++stats.samples;
    }
  }
  return stats;
}

TEST(LoopFreedom, AodvValidRoutesNeverCycle) {
  const LoopStats s = check_protocol("AODV");
  EXPECT_EQ(s.samples, 180u);
  EXPECT_GT(s.multi_hop_walks, 0u);  // the oracle saw real multi-hop routes
}

TEST(LoopFreedom, DsdvRoutesNeverCycle) {
  const LoopStats s = check_protocol("DSDV");
  EXPECT_EQ(s.samples, 180u);
  EXPECT_GT(s.multi_hop_walks, 0u);
}

}  // namespace
}  // namespace manet
