// Destination-Sequenced Distance Vector (Perkins & Bhagwat '94).
//
// The classic proactive baseline of the comparison literature (Broch '98,
// Das '00 both include it). Every node maintains a route to every
// destination, tagged with a destination-generated even sequence number;
// routes advertising higher sequence numbers (or equal with fewer hops)
// win. Link breaks are advertised with an odd sequence number and infinite
// metric. Implemented:
//   * periodic full-table dumps (15 s, jittered);
//   * triggered incremental updates on route changes, rate-limited (1 s);
//   * link-layer failure detection feeding broken-route advertisements;
//   * immediate forwarding (no buffering): a packet with no current route
//     is dropped — the proactive trade-off the PDR-vs-mobility figures show.
// Omitted: weighted settling time (we rate-limit triggered updates instead).
#pragma once

#include <map>
#include <vector>

#include "net/node.hpp"
#include "routing/common.hpp"

namespace manet::dsdv {

inline constexpr std::uint8_t kInfinity = 0xFF;

struct UpdateEntry {
  NodeId dst = 0;
  std::uint32_t seq = 0;
  std::uint8_t hops = 0;
};

struct Update final : RoutingPayloadBase<Update> {
  std::vector<UpdateEntry> entries;

  [[nodiscard]] std::size_t size_bytes() const override { return 8 + 12 * entries.size(); }
};

class Dsdv final : public RoutingProtocol {
 public:
  static constexpr SimTime kFullUpdateInterval = seconds(15);
  static constexpr SimTime kTriggeredMinInterval = seconds(1);

  Dsdv(Node& node, RngStream rng);

  void start() override;
  void route_packet(Packet pkt) override;
  void on_control(const Packet& pkt, NodeId from) override;
  void on_link_failure(const Packet& pkt, NodeId next_hop) override;
  void on_node_restart() override;
  [[nodiscard]] const char* name() const override { return "DSDV"; }

  // -- introspection (tests) -------------------------------------------------
  struct RouteInfo {
    NodeId next_hop;
    std::uint8_t hops;
  };
  [[nodiscard]] std::optional<RouteInfo> route_to(NodeId dst) const;

 private:
  struct Route {
    std::uint32_t seq = 0;
    std::uint8_t hops = kInfinity;
    NodeId next_hop = 0;
    bool changed = false;  // pending inclusion in a triggered update
  };

  void send_full_update();
  void schedule_triggered_update();
  void send_triggered_update();
  void broadcast_update(std::vector<UpdateEntry> entries);
  void handle_update(const Update& upd, NodeId from);
  void mark_broken_via(NodeId next_hop);

  RngStream rng_;
  std::uint32_t own_seq_ = 0;  // even numbers: destination-generated
  /// Ordered map: full and triggered updates serialize the table in iteration
  /// order, keeping advertised entry order identical on every platform.
  std::map<NodeId, Route> routes_;
  bool trigger_pending_ = false;
  SimTime last_triggered_ = SimTime::zero();
};

}  // namespace manet::dsdv
