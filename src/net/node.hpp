// A mobile node: radio + MAC + ARP + routing hook + data sink.
//
// The Node is the composition root of one protocol stack instance. It owns
// the transceiver, MAC, and ARP module; the routing protocol is attached
// after construction (it needs a reference back to the node). Data packets
// addressed to this node terminate here and feed the metrics; everything
// else is steered to the routing protocol.
#pragma once

#include <memory>
#include <unordered_set>

#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "mac/wifi_mac.hpp"
#include "mobility/mobility_model.hpp"
#include "net/arp.hpp"
#include "net/routing_api.hpp"
#include "phy/channel.hpp"
#include "phy/transceiver.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

namespace manet {

class ReliableTransport;

/// Initial TTL on originated data packets; also bounds flooding.
inline constexpr std::uint8_t kInitialTtl = 64;

class Node final : public MacListener {
 public:
  /// Constructs the stack and registers the node with the channel. Nodes
  /// must be constructed in id order (0, 1, 2, ...). `mobility` is non-owning
  /// and must outlive the node — the Scenario's MobilityPool arena holds all
  /// models contiguously so the channel's position refresh walks them in
  /// cache order.
  Node(Simulator& sim, StatsCollector& stats, Channel& channel, NodeId id,
       MobilityModel* mobility, const MacConfig& mac_cfg, std::uint64_t root_seed);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  void set_routing(RoutingProtocol* rp) { routing_ = rp; }
  /// Attach the (optional) reliable transport endpoint of this node. When
  /// set, data packets carrying a transport header are steered to it instead
  /// of the raw sink, and restart() cold-resets it alongside routing.
  void set_transport(ReliableTransport* t) { transport_ = t; }
  /// Attach an (optional, shared) event trace.
  void set_trace(TraceWriter* t) { trace_ = t; }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] StatsCollector& stats() { return stats_; }
  [[nodiscard]] MobilityModel& mobility() { return *mobility_; }
  [[nodiscard]] WifiMac& mac() { return mac_; }
  [[nodiscard]] Transceiver& transceiver() { return trx_; }
  [[nodiscard]] Arp& arp() { return arp_; }
  [[nodiscard]] RoutingProtocol* routing() { return routing_; }
  [[nodiscard]] ReliableTransport* transport() { return transport_; }

  // -- application side -------------------------------------------------------
  /// Originate a data packet (called by traffic sources). Stamps network
  /// headers, counts it, and hands it to the routing protocol.
  void originate(Packet pkt);

  /// Send a transport segment or ACK (called by the reliable transport).
  /// Same header stamping and routing as originate(), but no origination
  /// accounting: the transport counts each application packet exactly once
  /// at try_send() acceptance, however often it is retransmitted.
  void transport_send(Packet pkt);

  // -- fault injection ---------------------------------------------------------
  /// Crash: power the radio down and flush the volatile stack state (MAC
  /// queue, ARP cache, buffered frames). The routing protocol object stays
  /// alive — its timers may fire while down, but the node gates every send
  /// and the channel delivers nothing, so a down node is fully silent.
  /// Counts the crash and opens an outage in the recovery metrics.
  void crash();
  /// Restart after a crash: radio up, routing state flushed cold via
  /// RoutingProtocol::on_node_restart(), the outage healed in the recovery
  /// metrics. Idempotent pairing is the fault plan's responsibility
  /// (crash/restart events strictly alternate).
  void restart();
  /// The radio's down flag: the only record of whether this node is crashed.
  [[nodiscard]] bool down() const { return trx_.down(); }

  // -- services for the routing protocol ---------------------------------------
  /// Send a packet to a specific link-layer neighbour (ARP resolves).
  void send_with_next_hop(Packet pkt, NodeId next_hop);
  /// Broadcast a packet to all neighbours (no ARP, no MAC ACK).
  void send_broadcast(Packet pkt);
  /// Count a dropped data packet (no-op for control packets).
  void drop(const Packet& pkt, DropReason r);
  /// Decrement TTL in place; on expiry drops the packet and returns false.
  bool decrement_ttl(Packet& pkt);

  // -- MacListener -------------------------------------------------------------
  void mac_deliver(const Packet& frame) override;
  void mac_link_failure(const Packet& frame, NodeId next_hop) override;

 private:
  // The transport's receive side delivers in-order payloads to the sink.
  friend class ReliableTransport;

  void deliver_to_sink(const Packet& pkt);
  /// Give a packet entering the network layer here its run-unique uid,
  /// unless it already has one (a forwarded copy).
  void stamp(Packet& pkt);

  /// Sink-side duplicate filter key. Bit budget: 20 bits each for flow,
  /// source id and sequence number — ample for any scenario here (flows and
  /// nodes number in the tens, per-flow sequence wraps after 10^6 packets).
  static std::uint64_t sink_key(const Packet& pkt) {
    return (static_cast<std::uint64_t>(pkt.app.flow & 0xFFFFF) << 44) |
           (static_cast<std::uint64_t>(pkt.ip.src & 0xFFFFF) << 24) |
           (pkt.app.seq & 0xFFFFF);
  }

  Simulator& sim_;
  StatsCollector& stats_;
  NodeId id_;
  MobilityModel* mobility_;  ///< non-owning; lives in the scenario's pool
  Transceiver trx_;
  WifiMac mac_;
  Arp arp_;
  RoutingProtocol* routing_ = nullptr;
  ReliableTransport* transport_ = nullptr;
  TraceWriter* trace_ = nullptr;
  // Survives crashes deliberately: the sink filter is measurement apparatus
  // (PDR counts unique application packets), not protocol state.
  std::unordered_set<std::uint64_t> sink_seen_;
};

}  // namespace manet
