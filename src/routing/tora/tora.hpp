// TORA — Temporally-Ordered Routing Algorithm (Park & Corson '97),
// simplified ("TORA-lite").
//
// The link-reversal protocol of the original comparison papers (Broch '98
// evaluated DSDV/TORA/DSR/AODV; Ahmed & Alam '06 found TORA competitive
// under specific parameters). TORA builds, per destination, a destination-
// oriented DAG of node "heights": packets always flow from higher to lower
// height, which is loop-free by construction. Implemented here:
//   * heights as the quintuple (tau, oid, r, delta, id) with lexicographic
//     order, kept per destination;
//   * route creation with QRY (flooded towards anyone with a height) and
//     UPD (propagates heights back, delta increasing away from the
//     destination);
//   * route maintenance by partial link reversal: a node that loses its
//     last downstream link defines a new reference level (tau = now,
//     oid = self) and broadcasts it, reversing the adjacent links;
//   * neighbour tracking via a lightweight periodic beacon — the stand-in
//     for the IMEP layer real TORA rides on — plus 802.11 link-layer
//     failure feedback for fast loss detection.
// Omitted (documented): full partition detection with the reflection bit
// echo and CLR flooding (undeliverable packets age out of the send buffer
// instead), and IMEP's reliable/in-order control delivery.
#pragma once

#include <map>
#include <optional>

#include "net/node.hpp"
#include "routing/common.hpp"

namespace manet::tora {

/// A TORA height. Null height (unknown) is represented by std::nullopt at
/// the call sites; the destination itself sits at the global minimum.
struct Height {
  std::int64_t tau = 0;   ///< reference-level timestamp (ns)
  NodeId oid = 0;         ///< originator of the reference level
  bool r = false;         ///< reflection bit
  std::int32_t delta = 0; ///< propagation ordering within the level
  NodeId id = 0;          ///< tie-breaker

  friend bool operator==(const Height&, const Height&) = default;
  friend auto operator<=>(const Height& a, const Height& b) = default;
};

struct Qry final : RoutingPayloadBase<Qry> {
  NodeId dst = 0;
  [[nodiscard]] std::size_t size_bytes() const override { return 12; }
};

struct Upd final : RoutingPayloadBase<Upd> {
  NodeId dst = 0;
  Height height;
  [[nodiscard]] std::size_t size_bytes() const override { return 12 + 20; }
};

struct Beacon final : RoutingPayloadBase<Beacon> {
  [[nodiscard]] std::size_t size_bytes() const override { return 8; }
};

class Tora final : public RoutingProtocol {
 public:
  static constexpr SimTime kBeaconInterval = seconds(1);
  static constexpr SimTime kNeighborHold = seconds(3);
  /// Re-broadcast QRY at most this often per destination while routes are
  /// still required (rate limit against QRY storms).
  static constexpr SimTime kQryMinInterval = milliseconds(500);

  Tora(Node& node, RngStream rng);

  void start() override;
  void route_packet(Packet pkt) override;
  void on_control(const Packet& pkt, NodeId from) override;
  void on_link_failure(const Packet& pkt, NodeId next_hop) override;
  void on_node_restart() override;
  [[nodiscard]] const char* name() const override { return "TORA"; }

  // -- introspection (tests) -------------------------------------------------
  [[nodiscard]] std::optional<Height> height_for(NodeId dst) const;
  [[nodiscard]] std::optional<NodeId> downstream_for(NodeId dst);
  [[nodiscard]] std::vector<NodeId> live_neighbors() const;

 private:
  struct DestState {
    std::optional<Height> height;
    bool route_required = false;
    SimTime last_qry = SimTime{-1'000'000'000};
    /// Last advertised height per neighbour (nullopt = advertised null).
    /// Ordered map: best_downstream() breaks height ties towards the lowest
    /// neighbour id instead of hash order.
    std::map<NodeId, std::optional<Height>> nbr_heights;
  };

  void send_beacon();
  void purge_neighbors();
  void broadcast_control(std::unique_ptr<RoutingPayload> body);
  void send_qry(NodeId dst);
  void send_upd(NodeId dst);
  void handle_qry(const Qry& qry, NodeId from);
  void handle_upd(const Upd& upd, NodeId from);
  void on_neighbor_lost(NodeId nbr);
  /// Lowest-height live downstream neighbour, if any.
  [[nodiscard]] std::optional<NodeId> best_downstream(DestState& st) const;
  /// React to possibly having lost the last downstream link (reversal).
  void maybe_reverse(NodeId dst, DestState& st);
  [[nodiscard]] bool neighbor_alive(NodeId nbr) const;

  RngStream rng_;
  PacketBuffer buffer_;
  // Ordered maps: purge_neighbors() and on_neighbor_lost() emit control
  // packets while walking these tables, so iteration order reaches the event
  // queue and must not depend on hash layout.
  std::map<NodeId, SimTime> neighbors_;  // id -> expiry
  std::map<NodeId, DestState> dests_;
};

}  // namespace manet::tora
