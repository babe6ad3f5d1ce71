#include "routing/olsr/olsr.hpp"

#include <algorithm>

namespace manet::olsr {

namespace {
[[nodiscard]] std::uint64_t dup_key(NodeId origin, std::uint16_t seq) {
  return (static_cast<std::uint64_t>(origin) << 16) | seq;
}
}  // namespace

Olsr::Olsr(Node& node, const Config& cfg, RngStream rng)
    : RoutingProtocol(node), cfg_(cfg), rng_(rng) {}

void Olsr::start() {
  // Desynchronize: first emissions are uniformly spread over one interval.
  node_.sim().schedule(microseconds(rng_.uniform_int(0, cfg_.hello_interval.ns() / 1000)),
                       [this] { send_hello(); });
  node_.sim().schedule(microseconds(rng_.uniform_int(0, cfg_.tc_interval.ns() / 1000)),
                       [this] { send_tc(); });
  node_.sim().schedule(seconds(1), [this] { purge_expired(); });
}

bool Olsr::link_sym(NodeId nbr) const {
  const auto it = links_.find(nbr);
  return it != links_.end() && it->second.sym_until > node_.sim().now();
}

std::vector<NodeId> Olsr::sym_neighbors() const {
  std::vector<NodeId> out;
  for (const auto& [nbr, lt] : links_) {
    if (lt.sym_until > node_.sim().now()) out.push_back(nbr);
  }
  return out;
}

std::vector<NodeId> Olsr::mpr_selectors() const {
  std::vector<NodeId> out;
  for (const auto& [nbr, until] : selector_set_) {
    if (until > node_.sim().now()) out.push_back(nbr);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

void Olsr::send_hello() {
  recompute_mprs();
  auto hello = std::make_unique<Hello>();
  const SimTime now = node_.sim().now();
  for (const auto& [nbr, lt] : links_) {
    LinkCode code;
    if (lt.sym_until > now) {
      code = std::binary_search(mpr_set_.begin(), mpr_set_.end(), nbr) ? LinkCode::kMpr
                                                                        : LinkCode::kSym;
    } else if (lt.asym_until > now) {
      code = LinkCode::kAsym;
    } else {
      code = LinkCode::kLost;
    }
    hello->links.emplace_back(nbr, code);
  }
  Packet pkt;
  pkt.kind = PacketKind::kRoutingControl;
  pkt.ip.src = node_.id();
  pkt.ip.dst = kBroadcast;
  pkt.ip.ttl = 1;  // HELLOs are never relayed
  pkt.ip.proto = IpProto::kRouting;
  pkt.routing = std::move(hello);
  node_.send_broadcast(std::move(pkt));

  // Next emission with +-25% jitter (RFC recommends up to interval/4).
  const std::int64_t q = cfg_.hello_interval.ns() / 4;
  node_.sim().schedule(cfg_.hello_interval + nanoseconds(rng_.uniform_int(-q, q)),
                       [this] { send_hello(); });
}

void Olsr::send_tc() {
  const auto selectors = mpr_selectors();
  if (!selectors.empty()) {
    auto tc = std::make_unique<Tc>();
    tc->origin = node_.id();
    tc->ansn = ansn_;
    tc->msg_seq = msg_seq_++;
    tc->selectors = selectors;
    dup_set_[dup_key(node_.id(), tc->msg_seq)] = node_.sim().now() + cfg_.dup_hold;
    Packet pkt;
    pkt.kind = PacketKind::kRoutingControl;
    pkt.ip.src = node_.id();
    pkt.ip.dst = kBroadcast;
    pkt.ip.ttl = 255;
    pkt.ip.proto = IpProto::kRouting;
    pkt.routing = std::move(tc);
    node_.send_broadcast(std::move(pkt));
  }
  const std::int64_t q = cfg_.tc_interval.ns() / 4;
  node_.sim().schedule(cfg_.tc_interval + nanoseconds(rng_.uniform_int(-q, q)),
                       [this] { send_tc(); });
}

// ---------------------------------------------------------------------------
// Reception
// ---------------------------------------------------------------------------

void Olsr::on_control(const Packet& pkt, NodeId from) {
  if (const auto* hello = dynamic_cast<const Hello*>(pkt.routing.get())) {
    handle_hello(*hello, from);
  } else if (const auto* tc = dynamic_cast<const Tc*>(pkt.routing.get())) {
    handle_tc(pkt, *tc, from);
  }
}

void Olsr::handle_hello(const Hello& hello, NodeId from) {
  const SimTime now = node_.sim().now();
  LinkTuple& lt = links_[from];
  const bool was_sym = lt.sym_until > now;
  lt.asym_until = now + cfg_.neighb_hold;
  bool lists_us = false;
  for (const auto& [nbr, code] : hello.links) {
    if (nbr != node_.id()) continue;
    lists_us = code != LinkCode::kLost;
    if (code == LinkCode::kMpr) selector_set_[from] = now + cfg_.neighb_hold;
    break;
  }
  if (lists_us) lt.sym_until = now + cfg_.neighb_hold;
  if (!was_sym && lt.sym_until > now) routes_dirty_ = true;

  // 2-hop set: `from`'s symmetric neighbours.
  if (lt.sym_until > now) {
    auto& n2 = twohop_[from];
    for (const auto& [nbr, code] : hello.links) {
      if (nbr == node_.id()) continue;
      if (code == LinkCode::kSym || code == LinkCode::kMpr) {
        TwoHopTuple& tuple = n2[nbr];
        if (tuple.expires <= now) routes_dirty_ = true;
        tuple.expires = now + cfg_.neighb_hold;
      } else if (code == LinkCode::kLost) {
        if (n2.erase(nbr) != 0) routes_dirty_ = true;
      }
    }
  }
}

void Olsr::handle_tc(const Packet& pkt, const Tc& tc, NodeId from) {
  if (tc.origin == node_.id()) return;
  const SimTime now = node_.sim().now();
  const std::uint64_t key = dup_key(tc.origin, tc.msg_seq);
  const bool seen = [&] {
    const auto it = dup_set_.find(key);
    return it != dup_set_.end() && it->second > now;
  }();
  if (!seen) {
    dup_set_[key] = now + cfg_.dup_hold;
    // Process: accept only non-stale ANSNs (§9.5).
    auto& [tuple, selectors] = topology_[tc.origin];
    const bool stale =
        tuple.expires > now && static_cast<std::int16_t>(tc.ansn - tuple.ansn) < 0;
    if (!stale) {
      if (tuple.expires <= now || selectors != tc.selectors) {
        selectors = tc.selectors;
        routes_dirty_ = true;
      }
      tuple.ansn = tc.ansn;
      tuple.expires = now + cfg_.topology_hold;
    }
    // Forwarding rule (§3.4): retransmit iff the previous hop selected us as
    // MPR (or classic flooding for the ablation), link to sender symmetric,
    // and TTL remains.
    const bool sender_selected_us = [&] {
      const auto it = selector_set_.find(from);
      return it != selector_set_.end() && it->second > now;
    }();
    const bool forward = (cfg_.mpr_flooding ? sender_selected_us : true) && link_sym(from) &&
                         pkt.ip.ttl > 1;
    if (forward) {
      Packet fwd = pkt;
      --fwd.ip.ttl;
      node_.sim().schedule(broadcast_jitter(rng_), [this, fwd = std::move(fwd)]() mutable {
        node_.send_broadcast(std::move(fwd));
      });
    }
  }
}

// ---------------------------------------------------------------------------
// State maintenance
// ---------------------------------------------------------------------------

// Erases only expired entries and the 2-hop sets of non-symmetric
// neighbours, none of which is in the live graph, so the route table stays
// valid.
void Olsr::purge_expired() {
  const SimTime now = node_.sim().now();
  std::erase_if(links_, [now](const auto& kv) {
    return kv.second.sym_until <= now && kv.second.asym_until <= now;
  });
  // manet-lint: order-independent - pure expiry sweep; erases per-key state
  // and schedules nothing, so visit order cannot reach the event queue.
  for (auto it = twohop_.begin(); it != twohop_.end();) {
    std::erase_if(it->second, [now](const auto& kv) { return kv.second.expires <= now; });
    if (it->second.empty() || !link_sym(it->first)) {
      it = twohop_.erase(it);
    } else {
      ++it;
    }
  }
  std::erase_if(selector_set_, [now](const auto& kv) { return kv.second <= now; });
  std::erase_if(topology_, [now](const auto& kv) { return kv.second.first.expires <= now; });
  std::erase_if(dup_set_, [now](const auto& kv) { return kv.second <= now; });
  node_.sim().schedule(seconds(1), [this] { purge_expired(); });
}

void Olsr::recompute_mprs() {
  const SimTime now = node_.sim().now();
  const std::vector<NodeId> n1 = sym_neighbors();
  std::unordered_map<NodeId, std::vector<NodeId>> n2_of;
  for (const NodeId n : n1) {
    const auto it = twohop_.find(n);
    if (it == twohop_.end()) continue;
    auto& vec = n2_of[n];
    for (const auto& [nbr, tuple] : it->second) {
      if (tuple.expires > now) vec.push_back(nbr);
    }
  }
  auto fresh = select_mprs(node_.id(), n1, n2_of);
  if (fresh != mpr_set_) {
    mpr_set_ = std::move(fresh);
    ++ansn_;
  }
}

template <class Fn>
void Olsr::for_each_live_edge(Fn&& fn) const {
  const SimTime now = node_.sim().now();
  const NodeId self = node_.id();
  for (const auto& [n1, lt] : links_) {
    if (lt.sym_until <= now) continue;
    fn(self, n1, lt.sym_until);
    const auto it = twohop_.find(n1);
    if (it == twohop_.end()) continue;
    for (const auto& [n2, tuple] : it->second) {
      if (tuple.expires > now && n2 != self) fn(n1, n2, tuple.expires);
    }
  }
  // manet-lint: order-independent - visit order reaches only the order of
  // neighbour lists, which cannot change a first hop (see recompute_routes()).
  for (const auto& [origin, entry] : topology_) {
    if (entry.first.expires <= now) continue;
    for (const NodeId sel : entry.second) {
      // TC advertises links origin <-> each selector.
      fn(origin, sel, entry.first.expires);
      fn(sel, origin, entry.first.expires);
    }
  }
}

std::unordered_map<NodeId, std::vector<NodeId>> Olsr::live_adjacency() const {
  std::unordered_map<NodeId, std::vector<NodeId>> adj;
  for_each_live_edge([&](NodeId u, NodeId v, SimTime) { adj[u].push_back(v); });
  return adj;
}

void Olsr::recompute_routes() {
  const NodeId self = node_.id();
  NodeId max_id = self;
  routes_valid_until_ = SimTime::max();
  edges_.clear();
  for_each_live_edge([&](NodeId u, NodeId v, SimTime expires) {
    edges_.emplace_back(u, v);
    max_id = std::max({max_id, u, v});
    routes_valid_until_ = std::min(routes_valid_until_, expires);
  });

  // Counting sort into CSR form. Only self's list is sorted: every node the
  // BFS discovers from u inherits u's first hop, so the frontier stays
  // grouped by first hop in the order of self's list, and a node's first hop
  // is that of the earliest group adjacent to it, whatever the order of the
  // other lists. This yields the first hops of shortest_paths(), which sorts
  // every list.
  const std::size_t n = std::size_t{max_id} + 1;
  adj_start_.assign(n + 2, 0);
  for (const auto& [u, v] : edges_) ++adj_start_[u + 2];
  for (std::size_t i = 2; i < adj_start_.size(); ++i) adj_start_[i] += adj_start_[i - 1];
  adj_.resize(edges_.size());
  for (const auto& [u, v] : edges_) adj_[adj_start_[u + 1]++] = v;
  std::sort(adj_.begin() + adj_start_[self], adj_.begin() + adj_start_[self + 1]);

  // FIFO BFS from self; next_hop_ doubles as the visited mark.
  next_hop_.assign(n, kBroadcast);
  next_hop_[self] = self;
  frontier_.assign(1, self);
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const NodeId u = frontier_[head];
    for (std::uint32_t i = adj_start_[u]; i < adj_start_[u + 1]; ++i) {
      const NodeId v = adj_[i];
      if (next_hop_[v] != kBroadcast) continue;
      next_hop_[v] = (u == self) ? v : next_hop_[u];
      frontier_.push_back(v);
    }
  }
  next_hop_[self] = kBroadcast;
  routes_dirty_ = false;
}

std::optional<NodeId> Olsr::next_hop_to(NodeId dst) {
  if (routes_dirty_ || node_.sim().now() >= routes_valid_until_) recompute_routes();
  if (dst >= next_hop_.size() || next_hop_[dst] == kBroadcast) return std::nullopt;
  return next_hop_[dst];
}

void Olsr::route_packet(Packet pkt) {
  const auto next = next_hop_to(pkt.ip.dst);
  if (!next) {
    node_.drop(pkt, DropReason::kNoRoute);
    return;
  }
  node_.send_with_next_hop(std::move(pkt), *next);
}

void Olsr::on_node_restart() {
  // Cold reboot: link sensing, 2-hop sets, MPRs, selector sets, learned
  // topology and the duplicate filter all go; routing recomputes from an
  // empty link state. ansn_ and msg_seq_ survive (RFC 3626 freshness: a
  // restarted node's first TC must not lose to its own pre-crash ANSN held
  // in neighbours' topology sets). The periodic HELLO/TC events kept firing
  // while down — their broadcasts were gated by the node.
  links_.clear();
  twohop_.clear();
  mpr_set_.clear();
  selector_set_.clear();
  topology_.clear();
  dup_set_.clear();
  routes_dirty_ = true;
}

}  // namespace manet::olsr
