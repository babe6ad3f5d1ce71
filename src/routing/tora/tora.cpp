#include "routing/tora/tora.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace manet::tora {

Tora::Tora(Node& node, RngStream rng)
    : RoutingProtocol(node),
      rng_(rng),
      buffer_(node.sim(), [&node](const Packet& p, DropReason r) { node.drop(p, r); }) {}

void Tora::start() {
  node_.sim().schedule(microseconds(rng_.uniform_int(0, kBeaconInterval.ns() / 1000)),
                       [this] { send_beacon(); });
  node_.sim().schedule(seconds(1), [this] { purge_neighbors(); });
}

// ---------------------------------------------------------------------------
// Neighbour tracking (IMEP stand-in)
// ---------------------------------------------------------------------------

void Tora::send_beacon() {
  broadcast_control(std::make_unique<Beacon>());
  const std::int64_t q = kBeaconInterval.ns() / 4;
  node_.sim().schedule(kBeaconInterval + nanoseconds(rng_.uniform_int(-q, q)),
                       [this] { send_beacon(); });
}

bool Tora::neighbor_alive(NodeId nbr) const {
  const auto it = neighbors_.find(nbr);
  return it != neighbors_.end() && it->second > node_.sim().now();
}

std::vector<NodeId> Tora::live_neighbors() const {
  std::vector<NodeId> out;
  for (const auto& [id, until] : neighbors_) {
    if (until > node_.sim().now()) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Tora::purge_neighbors() {
  const SimTime now = node_.sim().now();
  std::vector<NodeId> lost;
  for (const auto& [id, until] : neighbors_) {
    if (until <= now) lost.push_back(id);
  }
  for (const NodeId nbr : lost) {
    neighbors_.erase(nbr);
    on_neighbor_lost(nbr);
  }
  node_.sim().schedule(seconds(1), [this] { purge_neighbors(); });
}

void Tora::on_neighbor_lost(NodeId nbr) {
  for (auto& [dst, st] : dests_) {
    st.nbr_heights.erase(nbr);
    if (st.height.has_value() && dst != node_.id()) maybe_reverse(dst, st);
  }
}

// ---------------------------------------------------------------------------
// Heights & forwarding
// ---------------------------------------------------------------------------

std::optional<NodeId> Tora::best_downstream(DestState& st) const {
  if (!st.height.has_value()) return std::nullopt;
  std::optional<NodeId> best;
  std::optional<Height> best_h;
  for (const auto& [nbr, h] : st.nbr_heights) {
    if (!h.has_value() || !neighbor_alive(nbr)) continue;
    if (*h < *st.height && (!best_h || *h < *best_h)) {
      best = nbr;
      best_h = h;
    }
  }
  return best;
}

std::optional<Height> Tora::height_for(NodeId dst) const {
  const auto it = dests_.find(dst);
  if (it == dests_.end()) return std::nullopt;
  return it->second.height;
}

std::optional<NodeId> Tora::downstream_for(NodeId dst) {
  auto it = dests_.find(dst);
  if (it == dests_.end()) return std::nullopt;
  // A direct neighbour is always "downstream" in spirit: the destination
  // sits at the global minimum height.
  if (neighbor_alive(dst)) return dst;
  return best_downstream(it->second);
}

void Tora::route_packet(Packet pkt) {
  const NodeId dst = pkt.ip.dst;
  if (neighbor_alive(dst)) {
    node_.send_with_next_hop(std::move(pkt), dst);
    return;
  }
  DestState& st = dests_[dst];
  if (const auto next = best_downstream(st)) {
    node_.send_with_next_hop(std::move(pkt), *next);
    return;
  }
  // No downstream link: buffer and (re-)issue a route query.
  buffer_.push(std::move(pkt), dst);
  st.route_required = true;
  send_qry(dst);
}

// ---------------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------------

void Tora::broadcast_control(std::unique_ptr<RoutingPayload> body) {
  Packet pkt;
  pkt.kind = PacketKind::kRoutingControl;
  pkt.ip.src = node_.id();
  pkt.ip.dst = kBroadcast;
  pkt.ip.ttl = 1;  // all TORA control is single-hop; propagation is by relay
  pkt.ip.proto = IpProto::kRouting;
  pkt.routing = std::move(body);
  node_.send_broadcast(std::move(pkt));
}

void Tora::send_qry(NodeId dst) {
  DestState& st = dests_[dst];
  const SimTime now = node_.sim().now();
  if (now - st.last_qry < kQryMinInterval) return;  // rate limit
  st.last_qry = now;
  auto qry = std::make_unique<Qry>();
  qry->dst = dst;
  node_.sim().schedule(broadcast_jitter(rng_), [this, q = std::move(*qry)]() mutable {
    broadcast_control(std::make_unique<Qry>(q));
  });
}

void Tora::send_upd(NodeId dst) {
  const DestState& st = dests_.at(dst);
  MANET_ASSERT(st.height.has_value());
  auto upd = std::make_unique<Upd>();
  upd->dst = dst;
  upd->height = *st.height;
  node_.sim().schedule(broadcast_jitter(rng_), [this, u = std::move(*upd)]() mutable {
    broadcast_control(std::make_unique<Upd>(u));
  });
}

void Tora::handle_qry(const Qry& qry, NodeId from) {
  if (qry.dst == node_.id()) {
    // The destination answers with its zero height.
    DestState& st = dests_[qry.dst];
    st.height = Height{0, 0, false, 0, node_.id()};
    send_upd(qry.dst);
    return;
  }
  DestState& st = dests_[qry.dst];
  st.nbr_heights.try_emplace(from, std::nullopt);
  if (st.height.has_value()) {
    // We can serve the query immediately.
    send_upd(qry.dst);
    return;
  }
  if (!st.route_required) {
    st.route_required = true;
    send_qry(qry.dst);
  }
}

void Tora::handle_upd(const Upd& upd, NodeId from) {
  if (upd.dst == node_.id()) return;  // our own height is definitionally 0
  DestState& st = dests_[upd.dst];
  st.nbr_heights[from] = upd.height;

  if (st.route_required) {
    // Route creation (§ the QRY/UPD wave): adopt the level, delta one above
    // the advertising neighbour.
    Height h = upd.height;
    h.r = false;
    h.delta = upd.height.delta + 1;
    h.id = node_.id();
    st.height = h;
    st.route_required = false;
    send_upd(upd.dst);
    for (Packet& pkt : buffer_.take(upd.dst)) route_packet(std::move(pkt));
    return;
  }

  if (st.height.has_value()) {
    // Existing route: flush anything still waiting if this created a
    // downstream link.
    if (upd.height < *st.height && buffer_.has(upd.dst)) {
      for (Packet& pkt : buffer_.take(upd.dst)) route_packet(std::move(pkt));
    }
    // A reversal upstream may have removed our last downstream link.
    maybe_reverse(upd.dst, st);
  }
}

void Tora::maybe_reverse(NodeId dst, DestState& st) {
  if (!st.height.has_value()) return;
  if (neighbor_alive(dst)) return;  // direct link: nothing to fix
  if (best_downstream(st).has_value()) return;
  const bool has_upstream = std::any_of(
      st.nbr_heights.begin(), st.nbr_heights.end(),
      [this](const auto& kv) { return neighbor_alive(kv.first); });
  if (!has_upstream) {
    // Isolated for this destination: forget the height; the next data packet
    // triggers a fresh QRY.
    st.height.reset();
    return;
  }
  // Partial reversal: define a new reference level above everyone else's.
  Height h;
  h.tau = node_.sim().now().ns();
  h.oid = node_.id();
  h.r = false;
  h.delta = 0;
  h.id = node_.id();
  st.height = h;
  send_upd(dst);
}

void Tora::on_control(const Packet& pkt, NodeId from) {
  neighbors_[from] = node_.sim().now() + kNeighborHold;
  if (const auto* qry = dynamic_cast<const Qry*>(pkt.routing.get())) {
    handle_qry(*qry, from);
  } else if (const auto* upd = dynamic_cast<const Upd*>(pkt.routing.get())) {
    handle_upd(*upd, from);
  }
  // Beacons carry no body to process: hearing them refreshed the neighbour.
}

void Tora::on_link_failure(const Packet& pkt, NodeId next_hop) {
  neighbors_.erase(next_hop);
  on_neighbor_lost(next_hop);
  if (pkt.kind != PacketKind::kData) return;
  // Retry through the (possibly reversed) DAG; route_packet buffers and
  // queries if nothing is downstream anymore.
  Packet retry = pkt;
  route_packet(std::move(retry));
}

void Tora::on_node_restart() {
  // Cold reboot: all heights, neighbour heights and liveness go — the node
  // rejoins the DAGs with null height and re-queries on demand. The beacon
  // event kept firing while down (gated by the node), so neighbours relearn
  // us from the first post-restart beacon.
  neighbors_.clear();
  dests_.clear();
  buffer_.clear(DropReason::kNodeDown);
}

}  // namespace manet::tora
