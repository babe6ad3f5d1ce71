#include "routing/aodv/aodv.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace manet::aodv {

namespace {
/// Sequence-number comparison with wraparound (RFC 3561 §6.1: signed
/// 32-bit subtraction).
[[nodiscard]] bool seq_newer(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) > 0;
}
}  // namespace

Aodv::Aodv(Node& node, const Config& cfg, RngStream rng)
    : RoutingProtocol(node),
      cfg_(cfg),
      rng_(rng),
      seen_(kRreqIdLifetime),
      discoveries_(*this, node, [this](NodeId dst, Discovery& d) { rreq_timeout(dst, d); }) {}

void Aodv::start() {
  node_.sim().schedule(seconds(1), [this] { periodic_purge(); });
}

SimTime Aodv::ring_traversal_time(std::uint8_t ttl) const {
  // RING_TRAVERSAL_TIME = 2 * NODE_TRAVERSAL_TIME * (TTL + TIMEOUT_BUFFER),
  // TIMEOUT_BUFFER = 2.
  return 2 * static_cast<std::int64_t>(ttl + 2) * kNodeTraversalTime;
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

void Aodv::route_packet(Packet pkt) {
  const NodeId dst = pkt.ip.dst;
  auto it = routes_.find(dst);
  if (it != routes_.end() && it->second.valid && it->second.expires > node_.sim().now()) {
    Route& rt = it->second;
    rt.expires = std::max(rt.expires, node_.sim().now() + kActiveRouteTimeout);
    // Keep the route towards the packet's source alive too (§6.2).
    if (auto sit = routes_.find(pkt.ip.src); sit != routes_.end() && sit->second.valid) {
      sit->second.expires =
          std::max(sit->second.expires, node_.sim().now() + kActiveRouteTimeout);
    }
    node_.send_with_next_hop(std::move(pkt), rt.next_hop);
    return;
  }
  if (pkt.ip.src != node_.id()) {
    // Forwarding node without a route: drop and report the broken route
    // upstream via an RERR (§6.11 case ii).
    node_.drop(pkt, DropReason::kNoRoute);
    Rerr rerr;
    const std::uint32_t seq = (it != routes_.end()) ? it->second.dest_seq + 1 : 1;
    rerr.unreachable.emplace_back(dst, seq);
    broadcast_control(node_, std::make_unique<Rerr>(std::move(rerr)), 1);
    return;
  }
  if (Discovery* d = discoveries_.park(std::move(pkt), dst)) {
    d->ttl = cfg_.expanding_ring ? kTtlStart : kNetDiameter;
    send_rreq(dst, *d);
  }
}

// ---------------------------------------------------------------------------
// Route discovery
// ---------------------------------------------------------------------------

void Aodv::send_rreq(NodeId dst, Discovery& d) {
  ++seq_;  // §6.1: increment own seq before originating an RREQ
  ++rreq_id_;

  Rreq rreq;
  rreq.rreq_id = rreq_id_;
  rreq.origin = node_.id();
  rreq.dest = dst;
  rreq.origin_seq = seq_;
  if (const auto it = routes_.find(dst); it != routes_.end() && it->second.valid_seq) {
    rreq.dest_seq = it->second.dest_seq;
    rreq.unknown_dest_seq = false;
  }
  rreq.hop_count = 0;
  broadcast_control(node_, std::make_unique<Rreq>(rreq), d.ttl);

  discoveries_.arm(dst, d, ring_traversal_time(d.ttl));
}

void Aodv::rreq_timeout(NodeId dst, Discovery& d) {
  if (d.ttl < kTtlThreshold) {
    // Still in the expanding ring: widen and repeat (does not count as a retry).
    d.ttl = std::min<std::uint8_t>(d.ttl + kTtlIncrement, kTtlThreshold);
  } else if (d.ttl < kNetDiameter) {
    d.ttl = kNetDiameter;
  } else if (!discoveries_.retry(dst, d, kRreqRetries)) {
    return;  // destination unreachable
  }
  send_rreq(dst, d);
}

// ---------------------------------------------------------------------------
// Control handling
// ---------------------------------------------------------------------------

void Aodv::on_control(const Packet& pkt, NodeId from) {
  MANET_ASSERT(pkt.routing != nullptr);
  if (const auto* rreq = dynamic_cast<const Rreq*>(pkt.routing.get())) {
    handle_rreq(pkt, *rreq, from);
  } else if (const auto* rrep = dynamic_cast<const Rrep*>(pkt.routing.get())) {
    handle_rrep(pkt, *rrep, from);
  } else if (const auto* rerr = dynamic_cast<const Rerr*>(pkt.routing.get())) {
    handle_rerr(*rerr, from);
  }
}

void Aodv::touch_neighbor(NodeId nbr) {
  Route& rt = routes_[nbr];
  if (!rt.valid || rt.hops > 1) {
    rt.next_hop = nbr;
    rt.hops = 1;
    rt.valid = true;
    // Sequence number unknown for a route learned implicitly (§6.2).
    if (rt.hops > 1) rt.valid_seq = false;
  }
  rt.expires = std::max(rt.expires, node_.sim().now() + kActiveRouteTimeout);
}

bool Aodv::update_route(NodeId dst, std::uint32_t seq, bool valid_seq, std::uint8_t hops,
                        NodeId next_hop, SimTime lifetime) {
  Route& rt = routes_[dst];
  const bool had_valid_seq = rt.valid_seq;
  const std::uint32_t prev_seq = rt.dest_seq;
  const bool fresher = !rt.valid_seq || seq_newer(seq, rt.dest_seq) ||
                       (seq == rt.dest_seq && (!rt.valid || hops < rt.hops));
  if (!fresher && valid_seq) return false;
  if (!valid_seq && rt.valid) return false;  // never degrade a valid route with an unknown seq
  rt.dest_seq = valid_seq ? seq : rt.dest_seq;
  rt.valid_seq = rt.valid_seq || valid_seq;
  rt.hops = hops;
  rt.next_hop = next_hop;
  rt.valid = true;
  rt.expires = std::max(rt.expires, node_.sim().now() + lifetime);
  // §6.1: a known destination sequence number only ever moves forward —
  // accepting an older one would re-animate stale routes and loop packets.
  MANET_ENSURES_MSG(!had_valid_seq || !seq_newer(prev_seq, rt.dest_seq),
                    "node %u t=%lldns dst=%u: dest_seq moved backwards %u -> %u", node_.id(),
                    static_cast<long long>(node_.sim().now().ns()), dst, prev_seq, rt.dest_seq);
  return true;
}

void Aodv::handle_rreq(const Packet& pkt, const Rreq& rreq, NodeId from) {
  if (rreq.origin == node_.id()) return;  // our own flood echoed back
  if (seen_.seen(rreq.origin, rreq.rreq_id, node_.sim().now())) return;

  touch_neighbor(from);
  // Reverse route to the originator (§6.5).
  update_route(rreq.origin, rreq.origin_seq, true,
               static_cast<std::uint8_t>(rreq.hop_count + 1), from,
               ring_traversal_time(kNetDiameter));

  if (rreq.dest == node_.id()) {
    // §6.6.1: our seq must be at least the one in the RREQ.
    if (!rreq.unknown_dest_seq && seq_newer(rreq.dest_seq, seq_)) seq_ = rreq.dest_seq;
    ++seq_;
    send_rrep_as_dest(rreq, from);
    return;
  }

  if (cfg_.intermediate_reply && !rreq.dest_only) {
    const auto it = routes_.find(rreq.dest);
    if (it != routes_.end() && it->second.valid && it->second.valid_seq &&
        it->second.expires > node_.sim().now() &&
        (rreq.unknown_dest_seq || !seq_newer(rreq.dest_seq, it->second.dest_seq))) {
      send_rrep_as_intermediate(rreq, it->second, from);
      return;
    }
  }

  // Rebroadcast with decremented TTL.
  if (pkt.ip.ttl <= 1) return;
  auto body = std::make_unique<Rreq>(rreq);
  ++body->hop_count;
  rebroadcast(node_, rng_, pkt, std::move(body));
}

void Aodv::send_rrep_as_dest(const Rreq& rreq, NodeId back) {
  Rrep rrep;
  rrep.origin = rreq.origin;
  rrep.dest = node_.id();
  rrep.dest_seq = seq_;
  rrep.hop_count = 0;
  rrep.lifetime = kMyRouteTimeout;
  Packet pkt;
  pkt.kind = PacketKind::kRoutingControl;
  pkt.ip.src = node_.id();
  pkt.ip.dst = rreq.origin;
  pkt.routing = std::make_unique<Rrep>(rrep);
  unicast_control(std::move(pkt), back);
}

void Aodv::send_rrep_as_intermediate(const Rreq& rreq, const Route& rt, NodeId back) {
  Rrep rrep;
  rrep.origin = rreq.origin;
  rrep.dest = rreq.dest;
  rrep.dest_seq = rt.dest_seq;
  rrep.hop_count = rt.hops;
  rrep.lifetime = rt.expires - node_.sim().now();
  Packet pkt;
  pkt.kind = PacketKind::kRoutingControl;
  pkt.ip.src = node_.id();
  pkt.ip.dst = rreq.origin;
  pkt.routing = std::make_unique<Rrep>(rrep);
  // §6.6.2: the next hop towards the destination gains the replier's
  // upstream as precursor, and vice versa.
  routes_[rreq.dest].has_precursors = true;
  if (auto it = routes_.find(rreq.origin); it != routes_.end()) {
    it->second.has_precursors = true;
  }
  unicast_control(std::move(pkt), back);
}

void Aodv::handle_rrep(const Packet& pkt, const Rrep& rrep, NodeId from) {
  touch_neighbor(from);
  const auto hops = static_cast<std::uint8_t>(rrep.hop_count + 1);
  update_route(rrep.dest, rrep.dest_seq, true, hops, from, rrep.lifetime);

  if (rrep.origin == node_.id()) {
    discoveries_.complete(rrep.dest);
    return;
  }

  // Forward the RREP along the reverse route (§6.7).
  const auto rit = routes_.find(rrep.origin);
  if (rit == routes_.end() || !rit->second.valid) return;  // reverse route gone
  Packet fwd = pkt;
  auto body = std::make_unique<Rrep>(rrep);
  ++body->hop_count;
  fwd.routing = std::move(body);
  // Precursor bookkeeping: the node we forward to will use us towards dest.
  routes_[rrep.dest].has_precursors = true;
  rit->second.expires =
      std::max(rit->second.expires, node_.sim().now() + kActiveRouteTimeout);
  unicast_control(std::move(fwd), rit->second.next_hop);
}

void Aodv::handle_rerr(const Rerr& rerr, NodeId from) {
  Rerr propagate;
  for (const auto& [dst, seq] : rerr.unreachable) {
    auto it = routes_.find(dst);
    if (it == routes_.end() || !it->second.valid || it->second.next_hop != from) continue;
    Route& rt = it->second;
    rt.valid = false;
    rt.dest_seq = std::max(rt.dest_seq, seq);
    rt.expires = node_.sim().now() + kDeletePeriod;
    if (rt.has_precursors) propagate.unreachable.emplace_back(dst, rt.dest_seq);
    rt.has_precursors = false;
  }
  if (propagate.unreachable.empty()) return;
  broadcast_control(node_, std::make_unique<Rerr>(std::move(propagate)), 1);
}

// ---------------------------------------------------------------------------
// Link failure -> RERR (§6.11 case i)
// ---------------------------------------------------------------------------

void Aodv::invalidate_routes_via(NodeId next_hop, Rerr& out) {
  for (auto& [dst, rt] : routes_) {
    if (!rt.valid || rt.next_hop != next_hop) continue;
    rt.valid = false;
    ++rt.dest_seq;  // §6.11: increment so stale routes lose freshness contests
    rt.expires = node_.sim().now() + kDeletePeriod;
    if (rt.has_precursors || dst == next_hop) out.unreachable.emplace_back(dst, rt.dest_seq);
    rt.has_precursors = false;
  }
}

void Aodv::on_link_failure(const Packet& pkt, NodeId next_hop) {
  Rerr rerr;
  invalidate_routes_via(next_hop, rerr);
  if (!rerr.unreachable.empty()) {
    broadcast_control(node_, std::make_unique<Rerr>(std::move(rerr)), 1);
  }
  if (pkt.kind != PacketKind::kData) return;  // a lost control packet is just lost
  if (pkt.ip.src == node_.id()) {
    // We originated it: buffer and rediscover.
    Packet retry = pkt;
    route_packet(std::move(retry));
  } else {
    node_.drop(pkt, DropReason::kMacRetryLimit);
  }
}

void Aodv::on_node_restart() {
  // Cold reboot: every table, pending discovery and buffered packet goes.
  // Own seq_ and rreq_id_ survive (monotonic identity — RFC 3561 §6.1 keeps
  // the sequence number across reboots precisely so stale pre-crash
  // advertisements cannot beat post-restart ones).
  discoveries_.reset();
  seen_.clear();
  routes_.clear();
}

// ---------------------------------------------------------------------------
// Housekeeping
// ---------------------------------------------------------------------------

void Aodv::periodic_purge() {
  const SimTime now = node_.sim().now();
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second.expires <= now) {
      if (it->second.valid) {
        // Expired active route: invalidate first, delete after DELETE_PERIOD.
        it->second.valid = false;
        it->second.expires = now + kDeletePeriod;
        ++it;
      } else {
        it = routes_.erase(it);
      }
    } else {
      ++it;
    }
  }
  node_.sim().schedule(seconds(1), [this] { periodic_purge(); });
}

void Aodv::unicast_control(Packet pkt, NodeId next_hop) {
  pkt.ip.ttl = kInitialTtl;
  pkt.ip.proto = IpProto::kRouting;
  node_.send_with_next_hop(std::move(pkt), next_hop);
}

std::optional<Aodv::RouteInfo> Aodv::route_to(NodeId dst) const {
  const auto it = routes_.find(dst);
  if (it == routes_.end()) return std::nullopt;
  return RouteInfo{it->second.next_hop, it->second.hops, it->second.valid};
}

}  // namespace manet::aodv
