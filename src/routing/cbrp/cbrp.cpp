#include "routing/cbrp/cbrp.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace manet::cbrp {

Cbrp::Cbrp(Node& node, const Config& cfg, RngStream rng)
    : RoutingProtocol(node),
      cfg_(cfg),
      rng_(rng),
      seen_(seconds(30)),
      discoveries_(*this, node, [this](NodeId target, Discovery& d) {
        if (discoveries_.retry(target, d, kMaxRetries)) send_rreq(target, d);
      }),
      routes_(kRouteLifetime) {}

void Cbrp::start() {
  node_.sim().schedule(microseconds(rng_.uniform_int(0, kHelloInterval.ns() / 1000)),
                       [this] { send_hello(); });
}

// ---------------------------------------------------------------------------
// Neighbourhood & clustering
// ---------------------------------------------------------------------------

std::vector<NeighborSummary> Cbrp::neighbor_summaries() const {
  const SimTime now = node_.sim().now();
  std::vector<NeighborSummary> out;
  for (const auto& [id, nb] : neighbors_) {
    if (nb.expires > now) out.push_back(NeighborSummary{id, nb.role, nb.head});
  }
  std::sort(out.begin(), out.end(),
            [](const NeighborSummary& a, const NeighborSummary& b) { return a.id < b.id; });
  return out;
}

bool Cbrp::is_bidirectional_neighbor(NodeId id) const {
  const auto it = neighbors_.find(id);
  return it != neighbors_.end() && it->second.expires > node_.sim().now() &&
         it->second.lists_us;
}

std::vector<NodeId> Cbrp::neighbor_ids() const {
  std::vector<NodeId> out;
  for (const auto& n : neighbor_summaries()) out.push_back(n.id);
  return out;
}

void Cbrp::update_role() {
  const auto nbrs = neighbor_summaries();
  if (role_ == Role::kHead) {
    if (head_contested(node_.id(), nbrs)) {
      if (++contested_rounds_ >= kContentionRounds) {
        role_ = Role::kMember;
        head_ = pick_head(nbrs);
        contested_rounds_ = 0;
      }
    } else {
      contested_rounds_ = 0;
    }
  } else {
    Role decided = decide_role(node_.id(), nbrs);
    // Listen before electing: self-election is only allowed once we have
    // had a chance to hear our neighbourhood. Joining an existing head is
    // always allowed.
    if (decided == Role::kHead && hello_rounds_ < kListenRounds) {
      decided = Role::kUndecided;
    }
    role_ = decided;
    head_ = (role_ == Role::kHead) ? node_.id()
            : (role_ == Role::kMember) ? pick_head(nbrs)
                                       : kBroadcast;
  }
  gateway_ = role_ == Role::kMember && is_gateway(head_, nbrs);

  // Cluster-role consistency after every transition: a head heads itself, a
  // member joined some *other* existing head, an undecided node has none, and
  // only members can bridge clusters as gateways.
  const long long now_ns = node_.sim().now().ns();
  MANET_ASSERT_MSG(role_ != Role::kHead || head_ == node_.id(),
                   "node %u t=%lldns: HEAD role but head_=%u", node_.id(), now_ns, head_);
  MANET_ASSERT_MSG(role_ != Role::kMember || (head_ != node_.id() && head_ != kBroadcast),
                   "node %u t=%lldns: MEMBER role with invalid head_=%u", node_.id(), now_ns,
                   head_);
  MANET_ASSERT_MSG(role_ != Role::kUndecided || head_ == kBroadcast,
                   "node %u t=%lldns: UNDECIDED role but head_=%u", node_.id(), now_ns, head_);
  MANET_ASSERT_MSG(!gateway_ || role_ == Role::kMember,
                   "node %u t=%lldns: gateway flag outside MEMBER role (role=%d)", node_.id(),
                   now_ns, static_cast<int>(role_));
}

void Cbrp::send_hello() {
  // Expire stale neighbours first, then re-evaluate the cluster structure.
  const SimTime now = node_.sim().now();
  std::erase_if(neighbors_, [now](const auto& kv) { return kv.second.expires <= now; });
  update_role();
  ++hello_rounds_;

  auto hello = std::make_unique<Hello>();
  hello->role = role_;
  hello->head = head_;
  hello->neighbors = neighbor_summaries();
  broadcast_control(node_, std::move(hello), 1);

  const std::int64_t q = kHelloInterval.ns() / 4;
  node_.sim().schedule(kHelloInterval + nanoseconds(rng_.uniform_int(-q, q)),
                       [this] { send_hello(); });
}

void Cbrp::handle_hello(const Hello& hello, NodeId from) {
  Neighbor& nb = neighbors_[from];
  nb.role = hello.role;
  nb.head = hello.head;
  nb.expires = node_.sim().now() + kNeighbHold;
  nb.their_neighbors = hello.neighbors;
  nb.lists_us = std::any_of(
      hello.neighbors.begin(), hello.neighbors.end(),
      [me = node_.id()](const NeighborSummary& s) { return s.id == me; });
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

void Cbrp::route_packet(Packet pkt) {
  if (pkt.routing != nullptr) {
    forward_with_route(std::move(pkt));
    return;
  }
  originate(std::move(pkt));
}

void Cbrp::originate(Packet pkt) {
  const NodeId dst = pkt.ip.dst;
  // Direct neighbour: no discovery needed (two-hop clusters make this common).
  if (is_bidirectional_neighbor(dst)) {
    send_source_routed(node_, std::move(pkt), {node_.id(), dst});
    return;
  }
  if (const Path* route = routes_.find(dst, node_.sim().now())) {
    send_source_routed(node_, std::move(pkt), *route);
    return;
  }
  if (Discovery* d = discoveries_.park(std::move(pkt), dst)) send_rreq(dst, *d);
}

void Cbrp::forward_with_route(Packet pkt) {
  SourceRoute* sr = route_to_relay(pkt, node_.id());
  if (sr == nullptr) {
    node_.drop(pkt, DropReason::kProtocol);
    return;
  }
  std::size_t next = sr->next_index + 1;
  // Route shortening: skip ahead to the furthest listed node we can reach
  // directly.
  for (std::size_t j = sr->path.size() - 1; j > next; --j) {
    if (is_bidirectional_neighbor(sr->path[j])) {
      next = j;
      break;
    }
  }
  sr->next_index = next;
  const NodeId hop = sr->path[next];
  node_.send_with_next_hop(std::move(pkt), hop);
}

// ---------------------------------------------------------------------------
// Route discovery
// ---------------------------------------------------------------------------

void Cbrp::send_rreq(NodeId target, Discovery& d) {
  auto rreq = std::make_unique<Rreq>();
  rreq->origin = node_.id();
  rreq->target = target;
  rreq->req_id = next_req_id_++;
  rreq->record = {node_.id()};
  broadcast_control(node_, std::move(rreq), kInitialTtl);

  // Every request floods; attempt k (from 0) waits kFirstTimeout * 2^k.
  discoveries_.arm(target, d, backoff(kFirstTimeout, kMaxTimeout, d.retries));
}

void Cbrp::handle_rreq(const Packet& pkt, const Rreq& rreq) {
  if (rreq.origin == node_.id()) return;
  if (seen_.seen(rreq.origin, rreq.req_id, node_.sim().now())) return;
  if (std::find(rreq.record.begin(), rreq.record.end(), node_.id()) != rreq.record.end()) {
    return;
  }

  if (rreq.target == node_.id()) {
    send_back(node_, make_reply<Rrep>(rreq.record, {node_.id()}));
    return;
  }

  // CBRP's flooding optimization: only clusterheads and gateways relay.
  if (role_ != Role::kHead && !gateway_) return;
  if (pkt.ip.ttl <= 1) return;
  auto body = std::make_unique<Rreq>(rreq);
  body->record.push_back(node_.id());
  rebroadcast(node_, rng_, pkt, std::move(body));
}

void Cbrp::handle_rrep(const Rrep& rrep) {
  if (relay_back(node_, rrep) || rrep.path.front() != node_.id()) return;
  routes_.learn(rrep.path, node_.sim().now());
  discoveries_.complete(rrep.path.back());
}

// ---------------------------------------------------------------------------
// Maintenance: local repair, route errors
// ---------------------------------------------------------------------------

std::optional<NodeId> Cbrp::neighbor_reaching(NodeId target, NodeId exclude) const {
  const SimTime now = node_.sim().now();
  std::optional<NodeId> best;
  for (const auto& [id, nb] : neighbors_) {
    if (id == exclude || nb.expires <= now || !nb.lists_us) continue;
    const bool reaches = std::any_of(
        nb.their_neighbors.begin(), nb.their_neighbors.end(),
        [target](const NeighborSummary& s) { return s.id == target; });
    if (reaches && (!best || id < *best)) best = id;
  }
  return best;
}

bool Cbrp::try_local_repair(Packet& pkt, NodeId broken_to) {
  auto* sr = dynamic_cast<SourceRoute*>(pkt.routing.mutate());
  if (sr == nullptr || sr->repairs >= kMaxRepairs) return false;
  // We are path[i]; the link to path[i+1] == broken_to broke. Patch through a
  // neighbour that reaches the broken node (or the node after it, skipping
  // the unreachable hop entirely when possible).
  const std::size_t i = sr->next_index - 1;
  if (sr->next_index >= sr->path.size() || sr->path[sr->next_index] != broken_to ||
      i >= sr->path.size() || sr->path[i] != node_.id()) {
    return false;
  }
  NodeId rejoin = broken_to;
  std::optional<NodeId> helper;
  if (sr->next_index + 1 < sr->path.size()) {
    rejoin = sr->path[sr->next_index + 1];
    helper = neighbor_reaching(rejoin, broken_to);
    if (helper) {
      // Splice: ... me, helper, rejoin, ... (drop broken_to).
      Path patched(sr->path.begin(), sr->path.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      patched.push_back(*helper);
      patched.insert(patched.end(),
                     sr->path.begin() + static_cast<std::ptrdiff_t>(sr->next_index) + 1,
                     sr->path.end());
      sr->path = std::move(patched);
      sr->next_index = i + 1;
      ++sr->repairs;
      return true;
    }
  }
  helper = neighbor_reaching(broken_to, broken_to);
  if (!helper) return false;
  Path patched(sr->path.begin(), sr->path.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  patched.push_back(*helper);
  patched.insert(patched.end(), sr->path.begin() + static_cast<std::ptrdiff_t>(sr->next_index),
                 sr->path.end());
  sr->path = std::move(patched);
  sr->next_index = i + 1;
  ++sr->repairs;
  return true;
}

void Cbrp::on_link_failure(const Packet& pkt, NodeId next_hop) {
  // Fast neighbour-loss detection: stop believing in the link immediately.
  neighbors_.erase(next_hop);

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

  if (cfg_.local_repair) {
    Packet patched = pkt;
    if (try_local_repair(patched, next_hop)) {
      const auto* psr = dynamic_cast<const SourceRoute*>(patched.routing.get());
      const NodeId hop = psr->path[psr->next_index];
      node_.send_with_next_hop(std::move(patched), hop);
      return;
    }
  }

  report_broken_link(node_, *sr, next_hop);
  node_.drop(pkt, DropReason::kMacRetryLimit);
}

void Cbrp::handle_rerr(const Rerr& rerr) {
  if (relay_back(node_, rerr) || rerr.path.front() != node_.id()) return;
  routes_.purge_link(rerr.broken_from, rerr.broken_to);
}

// ---------------------------------------------------------------------------

void Cbrp::on_control(const Packet& pkt, NodeId from) {
  MANET_ASSERT(pkt.routing != nullptr);
  if (const auto* hello = dynamic_cast<const Hello*>(pkt.routing.get())) {
    handle_hello(*hello, from);
  } else if (const auto* rreq = dynamic_cast<const Rreq*>(pkt.routing.get())) {
    handle_rreq(pkt, *rreq);
  } else if (const auto* rrep = dynamic_cast<const Rrep*>(pkt.routing.get())) {
    handle_rrep(*rrep);
  } else if (const auto* rerr = dynamic_cast<const Rerr*>(pkt.routing.get())) {
    handle_rerr(*rerr);
  }
}

void Cbrp::on_node_restart() {
  // Cold reboot: back to an UNDECIDED node with an empty neighbour table —
  // cluster formation restarts from the listening phase, exactly like a
  // node freshly joining the network. next_req_id_ survives (see DSR).
  discoveries_.reset();
  seen_.clear();
  neighbors_.clear();
  routes_.clear();
  role_ = Role::kUndecided;
  head_ = kBroadcast;
  gateway_ = false;
  contested_rounds_ = 0;
  hello_rounds_ = 0;
}

}  // namespace manet::cbrp
