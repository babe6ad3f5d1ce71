// The machinery the four on-demand protocols (AODV, DSR, CBRP, LAR) share.
//
// Each floods a route request, suppresses the duplicates it hears, parks data
// while the discovery runs, backs off and retries, and sends replies and
// errors back along a recorded path. That machinery lives here, once:
//   * DuplicateFilter: the (origin, id) requests already handled;
//   * DiscoveryTable: the discoveries in flight and the data parked behind
//     them — start, timer, give-up, completion, restart;
//   * the source-route messages of DSR, CBRP and LAR (SourceRoute, Rreq,
//     Rrep, Rerr) and the reverse-path send of replies and errors;
//   * SourceRouteTable: the per-destination routes CBRP and LAR learn from
//     replies.
// What differs stays with each protocol: AODV's expanding ring and sequence
// numbers, DSR's cache, non-propagating first query and salvaging, CBRP's
// clusters, route shortening and local repair, LAR's request zones. Nothing
// here asks which protocol called it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/node.hpp"
#include "routing/common.hpp"

namespace manet {

/// A source route or a recorded request path, origin first.
using Path = std::vector<NodeId>;

// ---------------------------------------------------------------------------
// Duplicate suppression
// ---------------------------------------------------------------------------

/// The route requests this node has already handled, each remembered for
/// `lifetime`. Expired entries are swept when the table has doubled since the
/// last sweep, so it holds at most about twice the requests heard in one
/// lifetime, and the filter never schedules an event of its own.
class DuplicateFilter {
 public:
  explicit DuplicateFilter(SimTime lifetime) : lifetime_(lifetime) {}

  /// True if (origin, id) was seen less than a lifetime ago; otherwise
  /// records it as seen `now` and returns false.
  [[nodiscard]] bool seen(NodeId origin, std::uint32_t id, SimTime now);

  /// Forget everything (node restart).
  void clear();

  [[nodiscard]] std::size_t size() const { return expires_.size(); }

 private:
  static constexpr std::size_t kMinSweep = 64;

  SimTime lifetime_;
  std::unordered_map<std::uint64_t, SimTime> expires_;
  std::size_t sweep_at_ = kMinSweep;
};

// ---------------------------------------------------------------------------
// Pending discoveries
// ---------------------------------------------------------------------------

/// One route discovery in flight.
struct Discovery {
  int retries = 0;       ///< timeouts counted by retry() so far
  std::uint8_t ttl = 0;  ///< AODV's current ring radius
  EventId timer = kInvalidEventId;
};

/// The discoveries this node has in flight, one per destination, and the
/// data parked behind them (a 64-packet / 30 s PacketBuffer).
class DiscoveryTable {
 public:
  using Timeout = std::function<void(NodeId dst, Discovery& d)>;

  /// `owner` routes the parked packets when a discovery completes;
  /// `on_timeout` runs when a pending discovery's timer fires.
  DiscoveryTable(RoutingProtocol& owner, Node& node, Timeout on_timeout);

  /// Park `pkt` until a route to `dst` is known. Returns the new discovery
  /// when none was pending (the caller sends its first request), else nullptr.
  [[nodiscard]] Discovery* park(Packet pkt, NodeId dst);

  /// Run the timeout handler for `dst` after `delay`.
  void arm(NodeId dst, Discovery& d, SimTime delay);

  /// Count a timeout. Past `max_retries`, give up: forget the discovery and
  /// drop its parked packets as kNoRoute. True when the caller should send
  /// another request.
  [[nodiscard]] bool retry(NodeId dst, Discovery& d, int max_retries);

  /// A route to `dst` is known: stop its discovery and route the packets
  /// parked for it.
  void complete(NodeId dst);

  /// Node restart: stop every timer, forget every discovery, drop every
  /// parked packet as kNodeDown.
  void reset();

  [[nodiscard]] std::size_t buffered() { return buffer_.size(); }

 private:
  RoutingProtocol& owner_;
  Node& node_;
  Timeout on_timeout_;
  PacketBuffer buffer_;
  std::unordered_map<NodeId, Discovery> pending_;
};

/// First timeout `first`, doubled `doublings` times, capped at `max`.
[[nodiscard]] SimTime backoff(SimTime first, SimTime max, int doublings);

// ---------------------------------------------------------------------------
// Learned source routes
// ---------------------------------------------------------------------------

/// The source routes a node learned from route replies, one per destination,
/// each usable for `lifetime` after its reply (CBRP and LAR; DSR keeps its
/// own path cache).
class SourceRouteTable {
 public:
  explicit SourceRouteTable(SimTime lifetime) : lifetime_(lifetime) {}

  /// The route to `dst` (this node first), or nullptr if none was learned
  /// within the last lifetime.
  [[nodiscard]] const Path* find(NodeId dst, SimTime now) const;

  /// Learn `path` (this node first) as the route to path.back().
  void learn(const Path& path, SimTime now) { routes_[path.back()] = {path, now + lifetime_}; }

  /// Forget the route to `dst`: its first hop failed at the source.
  void erase(NodeId dst) { routes_.erase(dst); }

  /// Forget every route through the directed link a->b (a route error).
  void purge_link(NodeId a, NodeId b);

  /// Forget everything (node restart).
  void clear() { routes_.clear(); }

  [[nodiscard]] std::size_t size() const { return routes_.size(); }

 private:
  struct Entry {
    Path path;
    SimTime expires;
  };

  SimTime lifetime_;
  std::map<NodeId, Entry> routes_;
};

// ---------------------------------------------------------------------------
// Source-route messages (DSR, CBRP; LAR uses SourceRoute and Rerr)
// ---------------------------------------------------------------------------

/// Source-route option carried by every data packet.
struct SourceRoute final : RoutingPayloadBase<SourceRoute> {
  Path path;                   ///< [origin, ..., dst]
  std::size_t next_index = 1;  ///< index in `path` of the next hop
  int repairs = 0;             ///< times a relay salvaged or patched the route

  [[nodiscard]] std::size_t size_bytes() const override {
    // Fixed header (4) + option with the intermediate hops listed.
    return 4 + 4 + 4 * (path.size() >= 2 ? path.size() - 2 : 0);
  }
};

struct Rreq final : RoutingPayloadBase<Rreq> {
  NodeId origin = 0;
  NodeId target = 0;
  std::uint16_t req_id = 0;
  Path record;  ///< traversed nodes, origin first

  [[nodiscard]] std::size_t size_bytes() const override { return 4 + 8 + 4 * record.size(); }
};

struct Rrep final : RoutingPayloadBase<Rrep> {
  Path path;                   ///< discovered route [origin, ..., target]
  std::size_t back_index = 0;  ///< index of the node the reply goes to next

  [[nodiscard]] std::size_t size_bytes() const override { return 4 + 6 + 4 * path.size(); }
};

struct Rerr final : RoutingPayloadBase<Rerr> {
  NodeId broken_from = 0;
  NodeId broken_to = 0;
  Path path;                   ///< route back to the data source [origin, ..., reporter]
  std::size_t back_index = 0;  ///< index of the node the error goes to next

  [[nodiscard]] std::size_t size_bytes() const override { return 4 + 12 + 4 * path.size(); }
};

// ---------------------------------------------------------------------------
// Sends
// ---------------------------------------------------------------------------

/// Broadcast the control message `body` from this node with IP TTL `ttl`.
void broadcast_control(Node& node, RoutingPayloadPtr body, std::uint8_t ttl);

/// Relay the flooded request `pkt`, now carrying `body`, with one hop less
/// of TTL after a random jitter drawn from `rng`.
void rebroadcast(Node& node, RngStream& rng, const Packet& pkt, RoutingPayloadPtr body);

/// Unicast a reply or error to msg->path[back_index], addressed to
/// path.front(): the reverse-path leg of every source-routed control message.
template <class Msg>
void send_back(Node& node, std::unique_ptr<Msg> msg) {
  const NodeId next = msg->path[msg->back_index];
  Packet pkt;
  pkt.kind = PacketKind::kRoutingControl;
  pkt.ip.src = node.id();
  pkt.ip.dst = msg->path.front();
  pkt.ip.ttl = kInitialTtl;
  pkt.ip.proto = IpProto::kRouting;
  pkt.routing = std::move(msg);
  node.send_with_next_hop(std::move(pkt), next);
}

/// Pass a reply or error one hop further back. False when this node is not
/// the hop it was sent to: it reached path.front(), or is a stale copy.
template <class Msg>
bool relay_back(Node& node, const Msg& msg) {
  if (msg.back_index == 0 || msg.path[msg.back_index] != node.id()) return false;
  auto body = std::make_unique<Msg>(msg);
  --body->back_index;
  send_back(node, std::move(body));
  return true;
}

/// The reply to a request that travelled `record` (origin first), carrying
/// the route record + `tail`, where `tail` starts at this node. It goes back
/// to record.back() first.
template <class Rep>
std::unique_ptr<Rep> make_reply(const Path& record, const Path& tail) {
  auto rep = std::make_unique<Rep>();
  rep->path = record;
  rep->path.insert(rep->path.end(), tail.begin(), tail.end());
  rep->back_index = record.size() - 1;
  return rep;
}

/// Send data packet `pkt` along `path`, which starts at this node.
void send_source_routed(Node& node, Packet pkt, Path path, int repairs = 0);

/// The source route of `pkt` if this node is its next hop and another hop
/// follows; nullptr for a stale or corrupt route.
[[nodiscard]] SourceRoute* route_to_relay(Packet& pkt, NodeId self);

/// If this node forwarded `sr` as an intermediate hop (not its source), send
/// a route error for its link to `broken_to` back to the source.
void report_broken_link(Node& node, const SourceRoute& sr, NodeId broken_to);

/// True iff `path` traverses the directed link a->b.
[[nodiscard]] bool uses_link(const Path& path, NodeId a, NodeId b);

}  // namespace manet
