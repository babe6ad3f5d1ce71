#include "routing/on_demand.hpp"

#include <algorithm>

namespace manet {

namespace {
/// Key of one flooded request: its originator and the originator's id.
[[nodiscard]] constexpr std::uint64_t rreq_key(NodeId origin, std::uint32_t id) {
  return (static_cast<std::uint64_t>(origin) << 32) | id;
}
}  // namespace

bool DuplicateFilter::seen(NodeId origin, std::uint32_t id, SimTime now) {
  const auto [it, inserted] = expires_.try_emplace(rreq_key(origin, id), now + lifetime_);
  if (!inserted) {
    if (it->second > now) return true;
    it->second = now + lifetime_;
    return false;
  }
  if (expires_.size() > sweep_at_) {
    // Lookups already ignore expired entries; erasing them only bounds the
    // table, so it happens here instead of on a timer.
    std::erase_if(expires_, [now](const auto& kv) { return kv.second <= now; });
    sweep_at_ = std::max(kMinSweep, 2 * expires_.size());
  }
  return false;
}

void DuplicateFilter::clear() {
  expires_.clear();
  sweep_at_ = kMinSweep;
}

const Path* SourceRouteTable::find(NodeId dst, SimTime now) const {
  const auto it = routes_.find(dst);
  return it != routes_.end() && it->second.expires > now ? &it->second.path : nullptr;
}

void SourceRouteTable::purge_link(NodeId a, NodeId b) {
  std::erase_if(routes_, [a, b](const auto& kv) { return uses_link(kv.second.path, a, b); });
}

DiscoveryTable::DiscoveryTable(RoutingProtocol& owner, Node& node, Timeout on_timeout)
    : owner_(owner),
      node_(node),
      on_timeout_(std::move(on_timeout)),
      buffer_(node.sim(), [&node](const Packet& p, DropReason r) { node.drop(p, r); }) {}

Discovery* DiscoveryTable::park(Packet pkt, NodeId dst) {
  buffer_.push(std::move(pkt), dst);
  const auto [it, started] = pending_.try_emplace(dst);
  return started ? &it->second : nullptr;
}

void DiscoveryTable::arm(NodeId dst, Discovery& d, SimTime delay) {
  d.timer = node_.sim().schedule(delay, [this, dst] {
    if (auto it = pending_.find(dst); it != pending_.end()) on_timeout_(dst, it->second);
  });
}

bool DiscoveryTable::retry(NodeId dst, Discovery& d, int max_retries) {
  if (++d.retries <= max_retries) return true;
  pending_.erase(dst);
  buffer_.drop_all(dst, DropReason::kNoRoute);
  return false;
}

void DiscoveryTable::complete(NodeId dst) {
  if (auto it = pending_.find(dst); it != pending_.end()) {
    node_.sim().cancel(it->second.timer);
    pending_.erase(it);
  }
  for (Packet& pkt : buffer_.take(dst)) owner_.route_packet(std::move(pkt));
}

void DiscoveryTable::reset() {
  // manet-lint: order-independent - only cancels timers; no packet is emitted
  for (auto& [dst, d] : pending_) node_.sim().cancel(d.timer);
  pending_.clear();
  buffer_.clear(DropReason::kNodeDown);
}

SimTime backoff(SimTime first, SimTime max, int doublings) {
  SimTime timeout = first;
  for (int i = 0; i < doublings && timeout < max; ++i) timeout = 2 * timeout;
  return std::min(timeout, max);
}

void broadcast_control(Node& node, RoutingPayloadPtr body, std::uint8_t ttl) {
  Packet pkt;
  pkt.kind = PacketKind::kRoutingControl;
  pkt.ip.src = node.id();
  pkt.ip.dst = kBroadcast;
  pkt.ip.ttl = ttl;
  pkt.ip.proto = IpProto::kRouting;
  pkt.routing = std::move(body);
  node.send_broadcast(std::move(pkt));
}

void rebroadcast(Node& node, RngStream& rng, const Packet& pkt, RoutingPayloadPtr body) {
  Packet fwd = pkt;
  --fwd.ip.ttl;
  fwd.routing = std::move(body);
  node.sim().schedule(broadcast_jitter(rng), [&node, fwd = std::move(fwd)]() mutable {
    node.send_broadcast(std::move(fwd));
  });
}

void send_source_routed(Node& node, Packet pkt, Path path, int repairs) {
  auto sr = std::make_unique<SourceRoute>();
  sr->path = std::move(path);
  sr->repairs = repairs;
  const NodeId next = sr->path[1];
  pkt.routing = std::move(sr);
  node.send_with_next_hop(std::move(pkt), next);
}

SourceRoute* route_to_relay(Packet& pkt, NodeId self) {
  auto* sr = dynamic_cast<SourceRoute*>(pkt.routing.mutate());
  if (sr == nullptr || sr->next_index + 1 >= sr->path.size() || sr->path[sr->next_index] != self) {
    return nullptr;
  }
  return sr;
}

void report_broken_link(Node& node, const SourceRoute& sr, NodeId broken_to) {
  if (sr.next_index < 2 || sr.next_index > sr.path.size()) return;
  const std::size_t me = sr.next_index - 1;
  if (sr.path[me] != node.id()) return;
  auto rerr = std::make_unique<Rerr>();
  rerr->broken_from = node.id();
  rerr->broken_to = broken_to;
  rerr->path.assign(sr.path.begin(), sr.path.begin() + static_cast<std::ptrdiff_t>(me) + 1);
  rerr->back_index = me - 1;
  send_back(node, std::move(rerr));
}

bool uses_link(const Path& path, NodeId a, NodeId b) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] == a && path[i + 1] == b) return true;
  }
  return false;
}

}  // namespace manet
