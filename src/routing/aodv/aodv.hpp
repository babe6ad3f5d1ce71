// Ad hoc On-demand Distance Vector routing (RFC 3561).
//
// The reactive distance-vector protocol of the comparison. Routes are built
// on demand by flooding a Route Request (RREQ) and unicasting a Route Reply
// (RREP) back along the reverse path; loop freedom comes from per-destination
// sequence numbers. Implemented here:
//   * expanding-ring search (TTL_START/INCREMENT/THRESHOLD) with binary
//     exponential RREQ retry backoff — togglable for the ablation bench;
//   * intermediate-node RREPs when a fresh-enough route is cached
//     (suppressed by the destination-only flag);
//   * Route Error (RERR) propagation on link failure, with link breaks
//     detected via 802.11 link-layer feedback (the CMU ns-2 configuration
//     this paper family used). An invalidated route is reported only if
//     some neighbour uses this node towards it, and the RERR is broadcast,
//     so a route keeps whether it has precursors, not their list (RFC 3561
//     §6.2 keeps the list to unicast the RERR, which this model never does);
//   * a 64-packet / 30 s send buffer during discovery.
// Duplicate suppression and the pending-discovery table are the shared
// on-demand core (routing/on_demand.hpp).
// Omitted (noted in DESIGN.md): HELLO messages, gratuitous RREPs, local
// repair, multicast.
#pragma once

#include <map>
#include <optional>

#include "net/node.hpp"
#include "routing/aodv/aodv_messages.hpp"
#include "routing/on_demand.hpp"

namespace manet::aodv {

struct Config {
  /// Expanding-ring search; disabled -> every RREQ is network-wide
  /// (ablation scenarios/abl_aodv_ers.json).
  bool expanding_ring = true;
  /// Allow intermediate nodes with fresh routes to answer RREQs.
  bool intermediate_reply = true;

  friend bool operator==(const Config&, const Config&) = default;
};

class Aodv final : public RoutingProtocol {
 public:
  // RFC 3561 §10 defaults; ACTIVE_ROUTE_TIMEOUT is ns-2's value with
  // link-layer feedback.
  static constexpr SimTime kActiveRouteTimeout = seconds(10);
  static constexpr SimTime kMyRouteTimeout = 2 * kActiveRouteTimeout;
  static constexpr SimTime kNodeTraversalTime = milliseconds(40);
  static constexpr std::uint8_t kNetDiameter = 35;
  static constexpr int kRreqRetries = 2;
  static constexpr SimTime kRreqIdLifetime = seconds(6);  ///< PATH_DISCOVERY_TIME
  static constexpr SimTime kDeletePeriod = seconds(15);
  static constexpr std::uint8_t kTtlStart = 1;
  static constexpr std::uint8_t kTtlIncrement = 2;
  static constexpr std::uint8_t kTtlThreshold = 7;

  Aodv(Node& node, const Config& cfg, RngStream rng);

  void start() override;
  void route_packet(Packet pkt) override;
  void on_control(const Packet& pkt, NodeId from) override;
  void on_link_failure(const Packet& pkt, NodeId next_hop) override;
  void on_node_restart() override;
  [[nodiscard]] const char* name() const override { return "AODV"; }

  // -- introspection (tests) ---------------------------------------------------
  struct RouteInfo {
    NodeId next_hop;
    std::uint8_t hops;
    bool valid;
  };
  [[nodiscard]] std::optional<RouteInfo> route_to(NodeId dst) const;
  [[nodiscard]] std::size_t buffered_packets() { return discoveries_.buffered(); }
  [[nodiscard]] std::size_t seen_requests() const { return seen_.size(); }

 private:
  struct Route {
    std::uint32_t dest_seq = 0;
    bool valid_seq = false;
    std::uint8_t hops = 0;
    NodeId next_hop = 0;
    SimTime expires = SimTime::zero();
    bool valid = false;
    /// Some neighbour was told to use this node towards the destination
    /// (an RREP went through it), so losing the route is worth an RERR.
    bool has_precursors = false;
  };

  // -- control handling ---------------------------------------------------------
  void handle_rreq(const Packet& pkt, const Rreq& rreq, NodeId from);
  void handle_rrep(const Packet& pkt, const Rrep& rrep, NodeId from);
  void handle_rerr(const Rerr& rerr, NodeId from);

  // -- machinery ------------------------------------------------------------
  void send_rreq(NodeId dst, Discovery& d);
  void rreq_timeout(NodeId dst, Discovery& d);
  void send_rrep_as_dest(const Rreq& rreq, NodeId back);
  void send_rrep_as_intermediate(const Rreq& rreq, const Route& rt, NodeId back);
  void unicast_control(Packet pkt, NodeId next_hop);
  /// Create or refresh the 1-hop route to a neighbour we heard from.
  void touch_neighbor(NodeId nbr);
  /// Update the route to `dst` if the offered one is fresher/shorter.
  bool update_route(NodeId dst, std::uint32_t seq, bool valid_seq, std::uint8_t hops,
                    NodeId next_hop, SimTime lifetime);
  void invalidate_routes_via(NodeId next_hop, Rerr& out);
  void periodic_purge();
  [[nodiscard]] SimTime ring_traversal_time(std::uint8_t ttl) const;

  Config cfg_;
  RngStream rng_;
  DuplicateFilter seen_;
  DiscoveryTable discoveries_;

  std::uint32_t seq_ = 0;       // own sequence number
  std::uint32_t rreq_id_ = 0;   // own RREQ id counter
  /// Ordered map: invalidate_routes_via() walks the table while building
  /// an RERR, so iteration order reaches the packet.
  std::map<NodeId, Route> routes_;
};

}  // namespace manet::aodv
