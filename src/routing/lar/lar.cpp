#include "routing/lar/lar.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace manet::lar {

RequestZone request_zone(Vec2 src, Vec2 dst_last, double radius) {
  RequestZone z;
  z.unrestricted = false;
  z.lo = {std::min(src.x, dst_last.x - radius), std::min(src.y, dst_last.y - radius)};
  z.hi = {std::max(src.x, dst_last.x + radius), std::max(src.y, dst_last.y + radius)};
  return z;
}

Lar::Lar(Node& node, const Config& cfg, RngStream rng)
    : RoutingProtocol(node),
      cfg_(cfg),
      rng_(rng),
      seen_(seconds(30)),
      discoveries_(*this, node, [this](NodeId target, Discovery& d) {
        if (discoveries_.retry(target, d, kMaxRetries)) send_rreq(target, d);
      }),
      routes_(cfg.route_lifetime) {}

void Lar::start() {}

Vec2 Lar::own_position() { return node_.mobility().position_at(node_.sim().now()); }

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

void Lar::route_packet(Packet pkt) {
  if (pkt.routing != nullptr) {
    forward_with_route(std::move(pkt));
    return;
  }
  originate(std::move(pkt));
}

void Lar::originate(Packet pkt) {
  const NodeId dst = pkt.ip.dst;
  if (const Path* route = routes_.find(dst, node_.sim().now())) {
    send_source_routed(node_, std::move(pkt), *route);
    return;
  }
  if (Discovery* d = discoveries_.park(std::move(pkt), dst)) send_rreq(dst, *d);
}

void Lar::forward_with_route(Packet pkt) {
  SourceRoute* sr = route_to_relay(pkt, node_.id());
  if (sr == nullptr) {
    node_.drop(pkt, DropReason::kProtocol);
    return;
  }
  ++sr->next_index;
  const NodeId next = sr->path[sr->next_index];
  node_.send_with_next_hop(std::move(pkt), next);
}

// ---------------------------------------------------------------------------
// Discovery
// ---------------------------------------------------------------------------

void Lar::send_rreq(NodeId target, Discovery& d) {
  auto rreq = std::make_unique<Rreq>();
  rreq->origin = node_.id();
  rreq->target = target;
  rreq->req_id = next_req_id_++;
  rreq->record = {node_.id()};
  rreq->origin_pos = own_position();

  // LAR fallback: after a failed zone-limited attempt, flood unrestricted.
  const auto loc = locations_.find(target);
  if (d.retries == 0 && loc != locations_.end() &&
      loc->second.stamp + kLocationLifetime > node_.sim().now()) {
    const double age_s = (node_.sim().now() - loc->second.stamp).sec();
    const double radius =
        std::max(cfg_.min_expected_radius, cfg_.assumed_v_max * age_s + cfg_.min_expected_radius);
    rreq->zone = request_zone(rreq->origin_pos, loc->second.pos, radius);
  }  // else: zone stays unrestricted (no location known -> plain flood)
  broadcast_control(node_, std::move(rreq), kInitialTtl);

  // Attempt k (from 0) waits kFirstTimeout * 2^k.
  discoveries_.arm(target, d, backoff(kFirstTimeout, kMaxTimeout, d.retries));
}

void Lar::handle_rreq(const Packet& pkt, const Rreq& rreq) {
  if (rreq.origin == node_.id()) return;
  if (seen_.seen(rreq.origin, rreq.req_id, node_.sim().now())) return;
  if (std::find(rreq.record.begin(), rreq.record.end(), node_.id()) != rreq.record.end()) {
    return;
  }

  // Location dissemination: every RREQ carries the requester's position.
  locations_[rreq.origin] = KnownLocation{rreq.origin_pos, node_.sim().now()};

  if (rreq.target == node_.id()) {
    auto rrep = make_reply<Rrep>(rreq.record, {node_.id()});
    rrep->target_pos = own_position();
    send_back(node_, std::move(rrep));
    return;
  }

  // The LAR rule: only nodes inside the request zone relay.
  if (!rreq.zone.contains(own_position())) return;
  if (pkt.ip.ttl <= 1) return;

  auto body = std::make_unique<Rreq>(rreq);
  body->record.push_back(node_.id());
  rebroadcast(node_, rng_, pkt, std::move(body));
}

void Lar::handle_rrep(const Rrep& rrep) {
  locations_[rrep.path.back()] = KnownLocation{rrep.target_pos, node_.sim().now()};
  if (relay_back(node_, rrep) || rrep.path.front() != node_.id()) return;
  routes_.learn(rrep.path, node_.sim().now());
  discoveries_.complete(rrep.path.back());
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

void Lar::on_link_failure(const Packet& pkt, NodeId next_hop) {
  if (pkt.kind == PacketKind::kRoutingControl) return;
  const auto* sr = dynamic_cast<const SourceRoute*>(pkt.routing.get());
  if (sr == nullptr) {
    node_.drop(pkt, DropReason::kMacRetryLimit);
    return;
  }
  if (pkt.ip.src == node_.id()) {
    routes_.erase(pkt.ip.dst);
    Packet retry = pkt;
    retry.routing = nullptr;
    originate(std::move(retry));
    return;
  }
  // Intermediate node: report to the source; the packet itself is lost.
  report_broken_link(node_, *sr, next_hop);
  node_.drop(pkt, DropReason::kMacRetryLimit);
}

void Lar::handle_rerr(const Rerr& rerr) {
  if (relay_back(node_, rerr) || rerr.path.front() != node_.id()) return;
  // Any route through the broken link is suspect; drop routes using it.
  routes_.purge_link(rerr.broken_from, rerr.broken_to);
}

void Lar::on_control(const Packet& pkt, NodeId /*from*/) {
  MANET_ASSERT(pkt.routing != nullptr);
  if (const auto* rreq = dynamic_cast<const Rreq*>(pkt.routing.get())) {
    handle_rreq(pkt, *rreq);
  } else if (const auto* rrep = dynamic_cast<const Rrep*>(pkt.routing.get())) {
    handle_rrep(*rrep);
  } else if (const auto* rerr = dynamic_cast<const Rerr*>(pkt.routing.get())) {
    handle_rerr(*rerr);
  }
}

void Lar::on_node_restart() {
  // Cold reboot: cached routes, learned destination locations (the "GPS
  // last-seen" table), pending discoveries and buffered data all go.
  // next_req_id_ survives (see DSR).
  discoveries_.reset();
  seen_.clear();
  locations_.clear();
  routes_.clear();
}

}  // namespace manet::lar
