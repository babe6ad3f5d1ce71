// Location-Aided Routing (Ko & Vaidya, MobiCom '98), scheme 1.
//
// The position-aided protocol of the comparison family: Boukerche's 2004
// journal follow-up concludes that "position aware routing protocols, in
// which nodes are equipped with a GPS device, present better performance and
// minimize routing overhead". LAR keeps DSR-style on-demand source routing
// but restricts route-request flooding to a *request zone*: the smallest
// axis-aligned rectangle containing the source and the destination's
// *expected zone* (a disc around its last known position with radius
// v_max x elapsed time). Nodes outside the request zone drop the RREQ instead
// of rebroadcasting. If a zone-limited discovery times out, the retry floods
// unrestricted (the standard fallback), so reachability matches DSR.
//
// Positions come from each node's own mobility model — the "GPS receiver".
// Destination location/timestamps are learned from RREPs (which carry the
// target's position) and refreshed by data delivery. Discovery bookkeeping,
// duplicate suppression, route errors and the source-route option are the
// shared on-demand core (routing/on_demand.hpp).
#pragma once

#include <unordered_map>

#include "net/node.hpp"
#include "routing/lar/lar_messages.hpp"
#include "routing/on_demand.hpp"

namespace manet::lar {

/// Smallest axis-aligned rectangle containing `src` and the expected-zone
/// disc of radius `radius` around `dst_last`. Pure, unit-tested.
[[nodiscard]] RequestZone request_zone(Vec2 src, Vec2 dst_last, double radius);

struct Config {
  /// Expected-zone radius floor, so a fresh location still allows movement.
  double min_expected_radius = 250.0;
  /// Speed bound used to grow the expected zone with location age.
  double assumed_v_max = 20.0;
  SimTime route_lifetime = seconds(60);

  friend bool operator==(const Config&, const Config&) = default;
};

class Lar final : public RoutingProtocol {
 public:
  static constexpr SimTime kFirstTimeout = milliseconds(500);  ///< doubles per retry
  static constexpr SimTime kMaxTimeout = seconds(10);
  static constexpr int kMaxRetries = 6;
  static constexpr SimTime kLocationLifetime = seconds(120);

  Lar(Node& node, const Config& cfg, RngStream rng);

  void start() override;
  void route_packet(Packet pkt) override;
  void on_control(const Packet& pkt, NodeId from) override;
  void on_link_failure(const Packet& pkt, NodeId next_hop) override;
  void on_node_restart() override;
  [[nodiscard]] const char* name() const override { return "LAR"; }

  // -- introspection (tests) -------------------------------------------------
  [[nodiscard]] bool has_location_for(NodeId dst) const { return locations_.contains(dst); }
  [[nodiscard]] Vec2 own_position();
  [[nodiscard]] std::size_t seen_requests() const { return seen_.size(); }

 private:
  struct KnownLocation {
    Vec2 pos;
    SimTime stamp;
  };

  void originate(Packet pkt);
  void forward_with_route(Packet pkt);
  /// The first request of a discovery is zone-limited, the rest flood.
  void send_rreq(NodeId target, Discovery& d);
  void handle_rreq(const Packet& pkt, const Rreq& rreq);
  void handle_rrep(const Rrep& rrep);
  void handle_rerr(const Rerr& rerr);

  Config cfg_;
  RngStream rng_;
  DuplicateFilter seen_;
  DiscoveryTable discoveries_;

  std::uint16_t next_req_id_ = 1;
  std::unordered_map<NodeId, KnownLocation> locations_;
  SourceRouteTable routes_;
};

}  // namespace manet::lar
