// Cluster Based Routing Protocol (Jiang, Li & Tay,
// draft-ietf-manet-cbrp-spec) — the third protocol of Boukerche's IPPS 2001
// comparison.
//
// CBRP organizes the network into lowest-id clusters and restricts route-
// discovery flooding to clusterheads and gateways (the nodes bridging
// adjacent clusters), trading periodic HELLO overhead for far cheaper
// discovery than a blind flood. Implemented:
//   * periodic HELLOs carrying the full neighbour table (giving every node
//     2-hop knowledge) and cluster affiliation;
//   * lowest-id cluster formation with contention grace (a higher-id head
//     steps down after persistently hearing a lower-id head);
//   * gateway detection from neighbour affiliations;
//   * route discovery in which only heads and gateways rebroadcast RREQs,
//     accumulating the actual forwarder path; replies unicast back along it;
//   * source-routed data forwarding with route shortening (skip ahead to
//     the furthest listed node that is a direct neighbour);
//   * local repair on link failure using 2-hop neighbour knowledge, falling
//     back to a route error to the source;
//   * a per-source route table built from replies, plus a send buffer.
// Discovery bookkeeping, duplicate suppression and the source-route
// messages are the shared on-demand core (routing/on_demand.hpp).
#pragma once

#include <map>

#include "net/node.hpp"
#include "routing/cbrp/cbrp_messages.hpp"
#include "routing/on_demand.hpp"

namespace manet::cbrp {

struct Config {
  bool local_repair = true;

  friend bool operator==(const Config&, const Config&) = default;
};

class Cbrp final : public RoutingProtocol {
 public:
  // draft-ietf-manet-cbrp-spec timers.
  static constexpr SimTime kHelloInterval = seconds(2);
  static constexpr SimTime kNeighbHold = seconds(6);
  /// Consecutive contested HELLO rounds before a head steps down.
  static constexpr int kContentionRounds = 3;
  /// HELLO rounds spent listening (remaining UNDECIDED) before a node may
  /// elect itself head — without this, every node's first hello fires with
  /// an empty neighbour table and the whole network self-elects at once.
  static constexpr int kListenRounds = 2;
  static constexpr SimTime kFirstTimeout = milliseconds(500);  ///< doubles per retry
  static constexpr SimTime kMaxTimeout = seconds(10);
  static constexpr int kMaxRetries = 6;
  static constexpr SimTime kRouteLifetime = seconds(60);
  static constexpr int kMaxRepairs = 2;

  Cbrp(Node& node, const Config& cfg, RngStream rng);

  void start() override;
  void route_packet(Packet pkt) override;
  void on_control(const Packet& pkt, NodeId from) override;
  void on_link_failure(const Packet& pkt, NodeId next_hop) override;
  void on_node_restart() override;
  [[nodiscard]] const char* name() const override { return "CBRP"; }

  // -- introspection (tests) -------------------------------------------------
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] NodeId head() const { return head_; }
  [[nodiscard]] bool gateway() const { return gateway_; }
  [[nodiscard]] std::vector<NodeId> neighbor_ids() const;
  [[nodiscard]] std::size_t seen_requests() const { return seen_.size(); }

 private:
  struct Neighbor {
    Role role = Role::kUndecided;
    NodeId head = kBroadcast;
    bool lists_us = false;  ///< bidirectional confirmation
    SimTime expires = SimTime::zero();
    std::vector<NeighborSummary> their_neighbors;
  };

  void send_hello();
  void update_role();
  void handle_hello(const Hello& hello, NodeId from);
  void handle_rreq(const Packet& pkt, const Rreq& rreq);
  void handle_rrep(const Rrep& rrep);
  void handle_rerr(const Rerr& rerr);
  void originate(Packet pkt);
  void forward_with_route(Packet pkt);
  void send_rreq(NodeId target, Discovery& d);
  bool try_local_repair(Packet& pkt, NodeId broken_to);
  [[nodiscard]] std::vector<NeighborSummary> neighbor_summaries() const;
  [[nodiscard]] bool is_bidirectional_neighbor(NodeId id) const;
  /// A live neighbour whose own neighbour table contains `target`.
  [[nodiscard]] std::optional<NodeId> neighbor_reaching(NodeId target, NodeId exclude) const;

  Config cfg_;
  RngStream rng_;
  DuplicateFilter seen_;
  DiscoveryTable discoveries_;

  Role role_ = Role::kUndecided;
  NodeId head_ = kBroadcast;
  bool gateway_ = false;
  int contested_rounds_ = 0;
  int hello_rounds_ = 0;

  // Ordered: the neighbour table is iterated when building HELLOs and when
  // picking repair relays, so traversal order must be the id order, not the
  // hash order of whatever libstdc++ this host has.
  std::map<NodeId, Neighbor> neighbors_;
  SourceRouteTable routes_;
  std::uint16_t next_req_id_ = 1;
};

}  // namespace manet::cbrp
