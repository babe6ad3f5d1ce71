// The interface every routing protocol implements, and the registry that
// enumerates the implementations.
//
// Lives in net/ (not routing/) so the Node can hold a protocol pointer
// without the network layer depending on any concrete protocol. Protocols
// receive three kinds of upcalls — data to route (originated or to be
// forwarded), control messages addressed to them, and 802.11 link-layer
// failure feedback — and drive the node through its send helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "packet/packet.hpp"

namespace manet {

class Node;
struct ScenarioConfig;

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

namespace routing {

/// One registered protocol implementation.
struct ProtocolEntry {
  /// Canonical uppercase name ("AODV"); also the name() the instances report.
  const char* name;
  /// Value of the scenario-layer Protocol enum, used for by-enum dispatch.
  std::uint8_t id;
  /// Instantiate the protocol for `node`. The factory reads its own config
  /// block out of the ScenarioConfig (defined in the scenario layer, hence
  /// opaque here) and seeds itself from the passed stream.
  std::unique_ptr<RoutingProtocol> (*make)(Node& node, const ScenarioConfig& cfg, RngStream rng);
};

/// Name/enum -> factory table for the implemented routing protocols.
///
/// The scenario layer registers every implementation once (see
/// protocol_registry() in scenario/scenario.hpp); everything downstream —
/// protocol construction, name rendering, name parsing, "run all protocols"
/// loops in benches and tests — iterates or queries this table instead of
/// maintaining its own switch over the enum. Adding protocol #8 is one enum
/// value plus one add() line.
class Registry {
 public:
  /// Register an entry. Names and ids must be unique; name lookups are
  /// case-insensitive, so names that differ only by case collide.
  void add(const ProtocolEntry& entry);

  /// Lookup by case-insensitive name ("aodv" matches "AODV"); nullptr when
  /// absent.
  [[nodiscard]] const ProtocolEntry* by_name(std::string_view name) const;

  /// Lookup by Protocol enum value; nullptr when absent.
  [[nodiscard]] const ProtocolEntry* by_id(std::uint8_t id) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// "AODV, DSR, ..." in registration order, for unknown-name diagnostics.
  [[nodiscard]] std::string names() const;

  /// Iteration, in registration order (the benches' canonical table order).
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

 private:
  std::vector<ProtocolEntry> entries_;
};

}  // namespace routing

}  // namespace manet
