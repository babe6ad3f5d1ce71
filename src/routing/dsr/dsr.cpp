#include "routing/dsr/dsr.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace manet::dsr {

Dsr::Dsr(Node& node, const Config& cfg, RngStream rng)
    : RoutingProtocol(node),
      cfg_(cfg),
      rng_(rng),
      cache_(node.id(), kCacheCapacity, kCacheLifetime),
      seen_(seconds(30)),
      discoveries_(*this, node, [this](NodeId target, Discovery& d) {
        if (discoveries_.retry(target, d, kMaxRetries)) send_rreq(target, d);
      }) {}

void Dsr::start() {
  // DSR is fully reactive: nothing to schedule up front.
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

void Dsr::route_packet(Packet pkt) {
  if (pkt.routing != nullptr) {
    forward_with_route(std::move(pkt));
    return;
  }
  originate(std::move(pkt));
}

void Dsr::originate(Packet pkt) {
  const NodeId dst = pkt.ip.dst;
  if (auto path = cache_.find(dst, node_.sim().now())) {
    send_source_routed(node_, std::move(pkt), std::move(*path));
    return;
  }
  if (Discovery* d = discoveries_.park(std::move(pkt), dst)) send_rreq(dst, *d);
}

void Dsr::forward_with_route(Packet pkt) {
  // We are path[next_index]; advance and relay. A stale/corrupt route that
  // does not list us next is discarded.
  SourceRoute* sr = route_to_relay(pkt, node_.id());
  if (sr == nullptr) {
    node_.drop(pkt, DropReason::kProtocol);
    return;
  }
  // Snoop: the remainder of the source route is a usable path for us too.
  cache_suffix_from_self(sr->path, node_.sim().now());
  ++sr->next_index;
  const NodeId next = sr->path[sr->next_index];
  node_.send_with_next_hop(std::move(pkt), next);
}

void Dsr::cache_suffix_from_self(const Path& path, SimTime now) {
  const auto it = std::find(path.begin(), path.end(), node_.id());
  if (it == path.end()) return;
  Path suffix(it, path.end());
  if (suffix.size() >= 2) cache_.add(suffix, now);
}

// ---------------------------------------------------------------------------
// Route discovery
// ---------------------------------------------------------------------------

void Dsr::send_rreq(NodeId target, Discovery& d) {
  const bool nonprop = d.retries == 0;
  auto rreq = std::make_unique<Rreq>();
  rreq->origin = node_.id();
  rreq->target = target;
  rreq->req_id = next_req_id_++;  // a fresh id per (re)flood
  rreq->record = {node_.id()};
  broadcast_control(node_, std::move(rreq), nonprop ? 1 : kInitialTtl);

  // The non-propagating query counts as attempt 0, so flood k (from 1)
  // waits kFirstTimeout * 2^(k-1).
  discoveries_.arm(target, d,
                   nonprop ? kNonpropTimeout : backoff(kFirstTimeout, kMaxTimeout, d.retries - 1));
}

void Dsr::handle_rreq(const Packet& pkt, const Rreq& rreq) {
  if (rreq.origin == node_.id()) return;
  if (seen_.seen(rreq.origin, rreq.req_id, node_.sim().now())) return;
  if (std::find(rreq.record.begin(), rreq.record.end(), node_.id()) != rreq.record.end()) {
    return;  // we already forwarded this flood (route record loop)
  }

  // The accumulated record, reversed, is a route from us back to the origin
  // (links assumed bidirectional — true for our radio model).
  {
    Path back(rreq.record.rbegin(), rreq.record.rend());
    back.insert(back.begin(), node_.id());
    cache_.add(back, node_.sim().now());
  }

  if (rreq.target == node_.id()) {
    send_back(node_, make_reply<Rrep>(rreq.record, {node_.id()}));
    return;
  }

  if (cfg_.intermediate_reply) {
    if (auto cached = cache_.find(rreq.target, node_.sim().now())) {
      // Splice record + cached path; reply only if the result is loop-free
      // (the draft's requirement to avoid advertising looping routes).
      auto rrep = make_reply<Rrep>(rreq.record, *cached);
      if (loop_free(rrep->path)) {
        send_back(node_, std::move(rrep));
        return;
      }
    }
  }

  if (pkt.ip.ttl <= 1) return;
  auto body = std::make_unique<Rreq>(rreq);
  body->record.push_back(node_.id());
  rebroadcast(node_, rng_, pkt, std::move(body));
}

void Dsr::handle_rrep(const Rrep& rrep) {
  // Everyone on the reply path may cache their suffix towards the target.
  cache_suffix_from_self(rrep.path, node_.sim().now());
  if (!relay_back(node_, rrep) && rrep.path.front() == node_.id()) {
    discoveries_.complete(rrep.path.back());
  }
}

// ---------------------------------------------------------------------------
// Route maintenance
// ---------------------------------------------------------------------------

void Dsr::on_link_failure(const Packet& pkt, NodeId next_hop) {
  cache_.remove_link(node_.id(), next_hop);

  if (pkt.kind == PacketKind::kRoutingControl) return;  // lost control: give up

  const auto* sr = dynamic_cast<const SourceRoute*>(pkt.routing.get());
  if (sr == nullptr) {
    node_.drop(pkt, DropReason::kMacRetryLimit);
    return;
  }

  if (pkt.ip.src == node_.id()) {
    // Strip the stale route and re-originate (cache lookup or rediscovery).
    Packet retry = pkt;
    retry.routing = nullptr;
    originate(std::move(retry));
    return;
  }

  // Tell the source about the broken link, then salvage the packet from our
  // own cache (a bounded number of times per packet).
  report_broken_link(node_, *sr, next_hop);
  if (cfg_.salvage && sr->repairs < kMaxSalvage) {
    if (auto alt = cache_.find(pkt.ip.dst, node_.sim().now())) {
      send_source_routed(node_, pkt, std::move(*alt), sr->repairs + 1);
      return;
    }
  }
  node_.drop(pkt, DropReason::kMacRetryLimit);
}

// ---------------------------------------------------------------------------

void Dsr::on_control(const Packet& pkt, NodeId /*from*/) {
  MANET_ASSERT(pkt.routing != nullptr);
  if (const auto* rreq = dynamic_cast<const Rreq*>(pkt.routing.get())) {
    handle_rreq(pkt, *rreq);
  } else if (const auto* rrep = dynamic_cast<const Rrep*>(pkt.routing.get())) {
    handle_rrep(*rrep);
  } else if (const auto* rerr = dynamic_cast<const Rerr*>(pkt.routing.get())) {
    cache_.remove_link(rerr->broken_from, rerr->broken_to);
    relay_back(node_, *rerr);  // on towards the source, unless this is it
  }
}

void Dsr::on_node_restart() {
  // Cold reboot: route cache, pending discoveries, duplicate filter and the
  // send buffer all go. next_req_id_ survives so a post-restart RREQ is not
  // suppressed by a neighbour's stale (origin, req_id) memory of the old one.
  discoveries_.reset();
  seen_.clear();
  cache_.clear();
}

}  // namespace manet::dsr
