#include "routing/dsdv/dsdv.hpp"

#include <algorithm>

namespace manet::dsdv {

namespace {
[[nodiscard]] bool seq_newer(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) > 0;
}
}  // namespace

Dsdv::Dsdv(Node& node, RngStream rng) : RoutingProtocol(node), rng_(rng) {}

void Dsdv::start() {
  // Stagger first dumps across nodes to avoid a synchronized startup storm.
  node_.sim().schedule(microseconds(rng_.uniform_int(0, 1'000'000)),
                       [this] { send_full_update(); });
}

// ---------------------------------------------------------------------------
// Advertising
// ---------------------------------------------------------------------------

void Dsdv::send_full_update() {
  own_seq_ += 2;
  std::vector<UpdateEntry> entries;
  entries.push_back(UpdateEntry{node_.id(), own_seq_, 0});
  for (auto& [dst, rt] : routes_) {
    entries.push_back(UpdateEntry{dst, rt.seq, rt.hops});
    rt.changed = false;
  }
  trigger_pending_ = false;
  broadcast_update(std::move(entries));
  // Jitter each period by up to ±1 s, as real implementations do.
  const SimTime jitter = microseconds(rng_.uniform_int(-1'000'000, 1'000'000));
  node_.sim().schedule(kFullUpdateInterval + jitter, [this] { send_full_update(); });
}

void Dsdv::schedule_triggered_update() {
  if (trigger_pending_) return;
  trigger_pending_ = true;
  const SimTime earliest = last_triggered_ + kTriggeredMinInterval;
  const SimTime delay = std::max(SimTime::zero(), earliest - node_.sim().now()) +
                        broadcast_jitter(rng_);
  node_.sim().schedule(delay, [this] { send_triggered_update(); });
}

void Dsdv::send_triggered_update() {
  if (!trigger_pending_) return;
  trigger_pending_ = false;
  last_triggered_ = node_.sim().now();
  std::vector<UpdateEntry> entries;
  entries.push_back(UpdateEntry{node_.id(), own_seq_, 0});
  for (auto& [dst, rt] : routes_) {
    if (rt.changed) {
      entries.push_back(UpdateEntry{dst, rt.seq, rt.hops});
      rt.changed = false;
    }
  }
  if (entries.size() <= 1) return;
  broadcast_update(std::move(entries));
}

void Dsdv::broadcast_update(std::vector<UpdateEntry> entries) {
  auto upd = std::make_unique<Update>();
  upd->entries = std::move(entries);
  Packet pkt;
  pkt.kind = PacketKind::kRoutingControl;
  pkt.ip.src = node_.id();
  pkt.ip.dst = kBroadcast;
  pkt.ip.ttl = 1;  // updates travel one hop; propagation is by re-advertising
  pkt.ip.proto = IpProto::kRouting;
  pkt.routing = std::move(upd);
  node_.send_broadcast(std::move(pkt));
}

// ---------------------------------------------------------------------------
// Receiving
// ---------------------------------------------------------------------------

void Dsdv::on_control(const Packet& pkt, NodeId from) {
  if (const auto* upd = dynamic_cast<const Update*>(pkt.routing.get())) {
    handle_update(*upd, from);
  }
}

void Dsdv::handle_update(const Update& upd, NodeId from) {
  bool changed_any = false;
  for (const UpdateEntry& e : upd.entries) {
    if (e.dst == node_.id()) {
      // Someone advertises a route to us. If it is "broken" (odd seq) or
      // carries a sequence number at least as new as ours, reclaim the
      // destination by jumping our own even number past it.
      if ((e.seq & 1u) != 0 || !seq_newer(own_seq_, e.seq)) {
        own_seq_ = (e.seq | 1u) + 1;  // next even number above e.seq
        changed_any = true;
      }
      continue;
    }
    const bool broken = (e.seq & 1u) != 0 || e.hops == kInfinity;
    const std::uint8_t new_hops =
        broken ? kInfinity : static_cast<std::uint8_t>(std::min<int>(e.hops + 1, kInfinity));
    Route& rt = routes_[e.dst];
    const bool adopt =
        seq_newer(e.seq, rt.seq) || (e.seq == rt.seq && new_hops < rt.hops);
    if (!adopt) continue;
    // A broken advertisement only matters if it comes from our next hop or
    // is genuinely newer than what we have.
    if (broken && rt.hops != kInfinity && rt.next_hop != from && !seq_newer(e.seq, rt.seq)) {
      continue;
    }
    if (rt.seq == e.seq && rt.hops == new_hops && rt.next_hop == from) continue;
    rt.seq = e.seq;
    rt.hops = new_hops;
    rt.next_hop = from;
    rt.changed = true;
    changed_any = true;
  }
  if (changed_any) schedule_triggered_update();
}

// ---------------------------------------------------------------------------
// Data & failures
// ---------------------------------------------------------------------------

void Dsdv::route_packet(Packet pkt) {
  const auto it = routes_.find(pkt.ip.dst);
  if (it == routes_.end() || it->second.hops == kInfinity) {
    node_.drop(pkt, DropReason::kNoRoute);
    return;
  }
  node_.send_with_next_hop(std::move(pkt), it->second.next_hop);
}

void Dsdv::mark_broken_via(NodeId next_hop) {
  bool changed_any = false;
  for (auto& [dst, rt] : routes_) {
    if (rt.hops == kInfinity || rt.next_hop != next_hop) continue;
    rt.hops = kInfinity;
    rt.seq += 1;  // odd: a route-breaker number
    rt.changed = true;
    changed_any = true;
  }
  if (changed_any) schedule_triggered_update();
}

void Dsdv::on_link_failure(const Packet& pkt, NodeId next_hop) {
  mark_broken_via(next_hop);
  node_.drop(pkt, DropReason::kMacRetryLimit);
}

void Dsdv::on_node_restart() {
  // Cold reboot: the table is rebuilt from scratch out of neighbours' next
  // periodic dumps. own_seq_ survives (destination-generated sequence
  // numbers must stay monotonic across reboots, or every pre-crash
  // advertisement of us would beat our fresh ones for 15 s). The periodic
  // full-update event kept firing while down — its broadcasts were gated by
  // the node — so advertising resumes by itself.
  routes_.clear();
  trigger_pending_ = false;
  last_triggered_ = SimTime::zero();
}

std::optional<Dsdv::RouteInfo> Dsdv::route_to(NodeId dst) const {
  const auto it = routes_.find(dst);
  if (it == routes_.end() || it->second.hops == kInfinity) return std::nullopt;
  return RouteInfo{it->second.next_hop, it->second.hops};
}

}  // namespace manet::dsdv
