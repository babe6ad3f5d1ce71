// The interface every routing protocol implements.
//
// Lives in net/ (not routing/) so the Node can hold a protocol pointer
// without the network layer depending on any concrete protocol. Protocols
// receive three kinds of upcalls — data to route (originated or to be
// forwarded), control messages addressed to them, and 802.11 link-layer
// failure feedback — and drive the node through its send helpers.
#pragma once

#include "packet/packet.hpp"

namespace manet {

class Node;

class RoutingProtocol {
 public:
  virtual ~RoutingProtocol() = default;

  /// Called once after the whole network is wired; schedule periodic
  /// activity (hellos, dumps, ...) here.
  virtual void start() = 0;

  /// Route a data packet: either freshly originated at this node or received
  /// for forwarding (TTL already decremented by the Node).
  virtual void route_packet(Packet pkt) = 0;

  /// A routing control message arrived; `from` is the transmitting
  /// neighbour.
  virtual void on_control(const Packet& pkt, NodeId from) = 0;

  /// The MAC exhausted retries sending `pkt` to `next_hop`. Default: count
  /// the loss if it carried data.
  virtual void on_link_failure(const Packet& pkt, NodeId next_hop);

  /// The host node restarted after a crash (fault injection). Protocols must
  /// come back with *cold* state: routing tables, neighbour sets, duplicate
  /// caches and pending discoveries flushed, buffered data dropped, exactly
  /// as a rebooted router would. Monotonic identity counters (DSDV/OLSR
  /// sequence numbers) may survive — real implementations persist them to
  /// avoid their stale advertisements beating fresh ones. Default: nothing
  /// to flush.
  virtual void on_node_restart() {}

  [[nodiscard]] virtual const char* name() const = 0;

 protected:
  explicit RoutingProtocol(Node& node) : node_(node) {}
  Node& node_;  // NOLINT(*-non-private-member-variables-in-classes) — protocols are Node extensions
};

}  // namespace manet
