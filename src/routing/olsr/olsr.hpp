// Optimized Link State Routing (RFC 3626).
//
// The proactive protocol of the 2014 follow-up study and the standard
// proactive comparator in modern reruns of this paper family. Implemented:
//   * HELLO messages (2 s) with link sensing: a link is ASYM when we hear a
//     neighbour, SYM once the neighbour's HELLO lists us back; entries
//     expire after the validity time (6 s);
//   * 2-hop neighbourhood tracking from HELLO neighbour lists;
//   * MPR selection (greedy RFC heuristic, in mpr.cpp) re-run on every
//     neighbourhood change, advertised back via the MPR link code;
//   * TC messages (5 s) originated by nodes with a non-empty MPR-selector
//     set, carrying the selector set and an ANSN; flooded with the MPR
//     forwarding rule (retransmit only if the previous hop selected us as
//     MPR) — the optimization the protocol is named for (ablation
//     abl_olsr_mpr floods classically instead);
//   * topology set with per-origin ANSN freshness and expiry (15 s), and a
//     per-origin duplicate filter (30 s);
//   * routing-table computation as a unit-weight BFS over the live graph:
//     symmetric 1-hop links, 2-hop links via those neighbours and advertised
//     topology links. The frontier is FIFO and this node's own neighbour
//     list is sorted, so ties break towards the smallest first hop, as in
//     routing/shortest_path (the test oracle). The table is cached and
//     recomputed on the next lookup only when the live graph may have
//     changed: a link became symmetric, a 2-hop tuple became live or a live
//     one was erased, a TC origin became live or changed its selector set,
//     the node restarted, or the earliest expiry among the entries the table
//     was built from has passed. A lookup therefore returns exactly what a
//     from-scratch computation at that instant would.
//
// State lives in two flat tables: one record per neighbour heard (link
// tuple, MPR-selector expiry, 2-hop list) and one per TC origin (topology
// tuple, recent message sequence numbers). Every reader checks an entry's
// expiry against the clock, and a default entry has expired, so an expired
// entry and an absent one behave alike and most state needs no sweep. The
// 1 Hz tick does only the two things a reader could tell apart:
//   * it erases a neighbour whose link has lapsed both ways; until then
//     send_hello() keeps advertising the link as LOST;
//   * it empties the 2-hop list of every neighbour whose link is not
//     symmetric, so those tuples do not come back, unexpired, if the link
//     turns symmetric again before they lapse.
// Both touch at most this node's degree. The rest stays bounded without a
// sweep: a neighbour's 2-hop list is compacted whenever its HELLO is
// processed, there is one origin record per TC originator ever heard, and
// an origin's duplicate window is pruned whenever it takes a new entry.
// Omitted: link hysteresis, willingness, multiple interfaces, HNA/MID.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/node.hpp"
#include "routing/common.hpp"
#include "routing/olsr/mpr.hpp"

namespace manet::olsr {

enum class LinkCode : std::uint8_t { kAsym, kSym, kMpr, kLost };

struct Hello final : RoutingPayloadBase<Hello> {
  std::vector<std::pair<NodeId, LinkCode>> links;

  [[nodiscard]] std::size_t size_bytes() const override {
    return 16 + 4 + 6 * links.size();
  }
};

struct Tc final : RoutingPayloadBase<Tc> {
  NodeId origin = 0;
  std::uint16_t ansn = 0;
  std::uint16_t msg_seq = 0;
  std::vector<NodeId> selectors;

  [[nodiscard]] std::size_t size_bytes() const override {
    return 16 + 4 + 4 * selectors.size();
  }
};

struct Config {
  SimTime neighb_hold = seconds(6);  // 3 * Olsr::kHelloInterval
  /// When false, TCs are flooded classically (every node retransmits) —
  /// the abl_olsr_mpr ablation quantifying the MPR optimization.
  bool mpr_flooding = true;

  friend bool operator==(const Config&, const Config&) = default;
};

class Olsr final : public RoutingProtocol {
 public:
  // RFC 3626 §18.3 emission intervals and holding times.
  static constexpr SimTime kHelloInterval = seconds(2);
  static constexpr SimTime kTcInterval = seconds(5);
  static constexpr SimTime kTopologyHold = 3 * kTcInterval;
  static constexpr SimTime kDupHold = seconds(30);

  /// Entries held, for bounding state in tests. Counts include expired
  /// entries not yet dropped.
  struct StateEntries {
    std::size_t links = 0;        ///< neighbour records (link tuples)
    std::size_t twohop = 0;       ///< 2-hop tuples over all neighbours
    std::size_t max_twohop = 0;   ///< longest single neighbour's 2-hop list
    std::size_t selectors = 0;    ///< neighbours that have selected us as MPR
    std::size_t origins = 0;      ///< per-origin records (topology tuples)
    std::size_t dups = 0;         ///< duplicate-filter entries over all origins
    std::size_t max_dups = 0;     ///< longest single origin's duplicate window
  };

  Olsr(Node& node, const Config& cfg, RngStream rng);

  void start() override;
  void route_packet(Packet pkt) override;
  void on_control(const Packet& pkt, NodeId from) override;
  void on_node_restart() override;
  [[nodiscard]] const char* name() const override { return "OLSR"; }

  // -- introspection (tests) -------------------------------------------------
  [[nodiscard]] std::vector<NodeId> sym_neighbors() const;
  [[nodiscard]] const std::vector<NodeId>& mprs() const { return mpr_set_; }
  [[nodiscard]] std::vector<NodeId> mpr_selectors() const;
  /// The link list the next HELLO carries, given the current MPR set.
  [[nodiscard]] std::vector<std::pair<NodeId, LinkCode>> advertised_links() const;
  [[nodiscard]] StateEntries state_entries() const;
  [[nodiscard]] std::optional<NodeId> next_hop_to(NodeId dst);
  /// The live graph the route table is computed from, as directed edges per
  /// node (routing/shortest_path's AdjacencyMap; list order unspecified).
  [[nodiscard]] std::unordered_map<NodeId, std::vector<NodeId>> live_adjacency() const;

 private:
  struct TwoHop {
    NodeId n2 = 0;
    SimTime expires = SimTime::zero();
  };
  /// A neighbour heard directly.
  struct Neighbor {
    NodeId id = 0;
    SimTime sym_until = SimTime::zero();
    SimTime asym_until = SimTime::zero();
    /// When its selection of us as MPR lapses. Set only together with
    /// asym_until, so it never outlasts the link tuple.
    SimTime selector_until = SimTime::zero();
    /// Its symmetric neighbours, sorted by n2, one tuple each.
    std::vector<TwoHop> twohop;
  };
  struct SeenTc {
    std::uint16_t msg_seq = 0;
    SimTime expires = SimTime::zero();
  };
  /// A TC originator.
  struct Origin {
    NodeId id = 0;
    std::uint16_t ansn = 0;
    SimTime expires = SimTime::zero();  ///< of the topology tuple
    std::vector<NodeId> selectors;      ///< as last accepted
    /// Its TCs received within kDupHold, in arrival order; at most about
    /// kDupHold / (0.75 * kTcInterval) = 8 are live.
    std::vector<SeenTc> seen;
  };

  void send_hello();
  void send_tc();
  void handle_hello(const Hello& hello, NodeId from);
  void handle_tc(const Packet& pkt, const Tc& tc, NodeId from);
  void expire_links();
  void recompute_mprs();
  void recompute_routes();
  /// Calls fn(u, v, expires) for every directed edge u -> v of the live
  /// graph; `expires` is when the entry that contributes the edge expires.
  template <class Fn>
  void for_each_live_edge(Fn&& fn) const;
  [[nodiscard]] const Neighbor* find_neighbor(NodeId id) const;
  [[nodiscard]] Neighbor& neighbor(NodeId id);
  [[nodiscard]] Origin& origin(NodeId id);

  Config cfg_;
  RngStream rng_;

  /// Sorted by id: send_hello() serializes the link set in this order, so
  /// the advertised link list is identical on every platform.
  std::vector<Neighbor> nbrs_;
  std::vector<NodeId> mpr_set_;
  /// In order of first TC heard; records are dropped only on restart.
  std::vector<Origin> origins_;
  std::unordered_map<NodeId, std::uint32_t> origin_index_;  ///< id -> origins_ slot

  std::uint16_t ansn_ = 0;
  std::uint16_t msg_seq_ = 0;
  bool routes_dirty_ = true;
  /// Earliest expiry among the entries the cached table was computed from.
  SimTime routes_valid_until_ = SimTime::zero();
  // Route-table state indexed by NodeId, reused across recomputes.
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<std::uint32_t> adj_start_;  ///< CSR offsets into adj_
  std::vector<NodeId> adj_;               ///< neighbour lists; self's sorted
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_hop_;  ///< kBroadcast where unreachable
};

}  // namespace manet::olsr
