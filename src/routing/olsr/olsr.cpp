#include "routing/olsr/olsr.hpp"

#include <algorithm>

namespace manet::olsr {

Olsr::Olsr(Node& node, const Config& cfg, RngStream rng)
    : RoutingProtocol(node), cfg_(cfg), rng_(rng) {}

void Olsr::start() {
  // Desynchronize: first emissions are uniformly spread over one interval.
  node_.sim().schedule(microseconds(rng_.uniform_int(0, kHelloInterval.ns() / 1000)),
                       [this] { send_hello(); });
  node_.sim().schedule(microseconds(rng_.uniform_int(0, kTcInterval.ns() / 1000)),
                       [this] { send_tc(); });
  node_.sim().schedule(seconds(1), [this] { expire_links(); });
}

const Olsr::Neighbor* Olsr::find_neighbor(NodeId id) const {
  const auto it = std::ranges::lower_bound(nbrs_, id, {}, &Neighbor::id);
  return it != nbrs_.end() && it->id == id ? &*it : nullptr;
}

Olsr::Neighbor& Olsr::neighbor(NodeId id) {
  const auto it = std::ranges::lower_bound(nbrs_, id, {}, &Neighbor::id);
  if (it != nbrs_.end() && it->id == id) return *it;
  const auto fresh = nbrs_.insert(it, Neighbor{});
  fresh->id = id;
  return *fresh;
}

Olsr::Origin& Olsr::origin(NodeId id) {
  const auto [it, fresh] =
      origin_index_.try_emplace(id, static_cast<std::uint32_t>(origins_.size()));
  if (fresh) origins_.emplace_back().id = id;
  return origins_[it->second];
}

std::vector<NodeId> Olsr::sym_neighbors() const {
  std::vector<NodeId> out;
  for (const Neighbor& nb : nbrs_) {
    if (nb.sym_until > node_.sim().now()) out.push_back(nb.id);
  }
  return out;
}

std::vector<NodeId> Olsr::mpr_selectors() const {
  std::vector<NodeId> out;
  for (const Neighbor& nb : nbrs_) {
    if (nb.selector_until > node_.sim().now()) out.push_back(nb.id);
  }
  return out;
}

std::vector<std::pair<NodeId, LinkCode>> Olsr::advertised_links() const {
  const SimTime now = node_.sim().now();
  std::vector<std::pair<NodeId, LinkCode>> out;
  out.reserve(nbrs_.size());
  for (const Neighbor& nb : nbrs_) {
    LinkCode code;
    if (nb.sym_until > now) {
      code = std::binary_search(mpr_set_.begin(), mpr_set_.end(), nb.id) ? LinkCode::kMpr
                                                                          : LinkCode::kSym;
    } else if (nb.asym_until > now) {
      code = LinkCode::kAsym;
    } else {
      code = LinkCode::kLost;
    }
    out.emplace_back(nb.id, code);
  }
  return out;
}

Olsr::StateEntries Olsr::state_entries() const {
  StateEntries e;
  e.links = nbrs_.size();
  for (const Neighbor& nb : nbrs_) {
    e.twohop += nb.twohop.size();
    e.max_twohop = std::max(e.max_twohop, nb.twohop.size());
    if (nb.selector_until != SimTime::zero()) ++e.selectors;
  }
  e.origins = origins_.size();
  for (const Origin& o : origins_) {
    e.dups += o.seen.size();
    e.max_dups = std::max(e.max_dups, o.seen.size());
  }
  return e;
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

void Olsr::send_hello() {
  recompute_mprs();
  auto hello = std::make_unique<Hello>();
  hello->links = advertised_links();
  Packet pkt;
  pkt.kind = PacketKind::kRoutingControl;
  pkt.ip.src = node_.id();
  pkt.ip.dst = kBroadcast;
  pkt.ip.ttl = 1;  // HELLOs are never relayed
  pkt.ip.proto = IpProto::kRouting;
  pkt.routing = std::move(hello);
  node_.send_broadcast(std::move(pkt));

  // Next emission with +-25% jitter (RFC recommends up to interval/4).
  const std::int64_t q = kHelloInterval.ns() / 4;
  node_.sim().schedule(kHelloInterval + nanoseconds(rng_.uniform_int(-q, q)),
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
    Packet pkt;
    pkt.kind = PacketKind::kRoutingControl;
    pkt.ip.src = node_.id();
    pkt.ip.dst = kBroadcast;
    pkt.ip.ttl = 255;
    pkt.ip.proto = IpProto::kRouting;
    pkt.routing = std::move(tc);
    node_.send_broadcast(std::move(pkt));
  }
  const std::int64_t q = kTcInterval.ns() / 4;
  node_.sim().schedule(kTcInterval + nanoseconds(rng_.uniform_int(-q, q)),
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
  Neighbor& nb = neighbor(from);
  const bool was_sym = nb.sym_until > now;
  nb.asym_until = now + cfg_.neighb_hold;
  bool lists_us = false;
  for (const auto& [nbr, code] : hello.links) {
    if (nbr != node_.id()) continue;
    lists_us = code != LinkCode::kLost;
    if (code == LinkCode::kMpr) nb.selector_until = now + cfg_.neighb_hold;
    break;
  }
  if (lists_us) nb.sym_until = now + cfg_.neighb_hold;
  if (nb.sym_until <= now) return;
  if (!was_sym) routes_dirty_ = true;

  // 2-hop set: `from`'s symmetric neighbours.
  auto& n2 = nb.twohop;
  for (const auto& [nbr, code] : hello.links) {
    if (nbr == node_.id() || code == LinkCode::kAsym) continue;
    const auto it = std::ranges::lower_bound(n2, nbr, {}, &TwoHop::n2);
    const bool held = it != n2.end() && it->n2 == nbr;
    if (code == LinkCode::kLost) {
      if (!held) continue;
      if (it->expires > now) routes_dirty_ = true;
      n2.erase(it);
    } else if (!held) {
      n2.insert(it, TwoHop{nbr, now + cfg_.neighb_hold});
      routes_dirty_ = true;
    } else {
      if (it->expires <= now) routes_dirty_ = true;
      it->expires = now + cfg_.neighb_hold;
    }
  }
  std::erase_if(n2, [now](const TwoHop& t) { return t.expires <= now; });
}

void Olsr::handle_tc(const Packet& pkt, const Tc& tc, NodeId from) {
  if (tc.origin == node_.id()) return;
  const SimTime now = node_.sim().now();
  Origin& o = origin(tc.origin);
  for (const SeenTc& seen : o.seen) {
    if (seen.msg_seq == tc.msg_seq && seen.expires > now) return;  // duplicate
  }
  std::erase_if(o.seen, [now](const SeenTc& seen) { return seen.expires <= now; });
  o.seen.push_back(SeenTc{tc.msg_seq, now + kDupHold});

  // Process: accept only non-stale ANSNs (§9.5).
  const bool stale = o.expires > now && static_cast<std::int16_t>(tc.ansn - o.ansn) < 0;
  if (!stale) {
    if (o.expires <= now || o.selectors != tc.selectors) {
      o.selectors = tc.selectors;
      routes_dirty_ = true;
    }
    o.ansn = tc.ansn;
    o.expires = now + kTopologyHold;
  }
  // Forwarding rule (§3.4): retransmit iff the previous hop selected us as
  // MPR (or classic flooding for the ablation), link to sender symmetric,
  // and TTL remains.
  const Neighbor* sender = find_neighbor(from);
  if (sender != nullptr && sender->sym_until > now &&
      (!cfg_.mpr_flooding || sender->selector_until > now) && pkt.ip.ttl > 1) {
    Packet fwd = pkt;
    --fwd.ip.ttl;
    node_.sim().schedule(broadcast_jitter(rng_), [this, fwd = std::move(fwd)]() mutable {
      node_.send_broadcast(std::move(fwd));
    });
  }
}

// ---------------------------------------------------------------------------
// State maintenance
// ---------------------------------------------------------------------------

// The only two sweeps a reader could tell apart (olsr.hpp). Neither touches
// the live graph, so the route table stays valid.
void Olsr::expire_links() {
  const SimTime now = node_.sim().now();
  std::erase_if(nbrs_, [now](const Neighbor& nb) {
    return nb.sym_until <= now && nb.asym_until <= now;
  });
  for (Neighbor& nb : nbrs_) {
    if (nb.sym_until <= now) nb.twohop.clear();
  }
  node_.sim().schedule(seconds(1), [this] { expire_links(); });
}

void Olsr::recompute_mprs() {
  const SimTime now = node_.sim().now();
  std::vector<NodeId> n1;
  std::vector<std::pair<NodeId, NodeId>> links;
  for (const Neighbor& nb : nbrs_) {
    if (nb.sym_until <= now) continue;
    n1.push_back(nb.id);
    for (const TwoHop& t : nb.twohop) {
      if (t.expires > now) links.emplace_back(nb.id, t.n2);
    }
  }
  auto fresh = select_mprs(node_.id(), n1, links);
  if (fresh != mpr_set_) {
    mpr_set_ = std::move(fresh);
    ++ansn_;
  }
}

template <class Fn>
void Olsr::for_each_live_edge(Fn&& fn) const {
  const SimTime now = node_.sim().now();
  const NodeId self = node_.id();
  for (const Neighbor& nb : nbrs_) {
    if (nb.sym_until <= now) continue;
    fn(self, nb.id, nb.sym_until);
    for (const TwoHop& t : nb.twohop) {
      if (t.expires > now && t.n2 != self) fn(nb.id, t.n2, t.expires);
    }
  }
  for (const Origin& o : origins_) {
    if (o.expires <= now) continue;
    for (const NodeId sel : o.selectors) {
      // TC advertises links origin <-> each selector.
      fn(o.id, sel, o.expires);
      fn(sel, o.id, o.expires);
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
  nbrs_.clear();
  mpr_set_.clear();
  origins_.clear();
  origin_index_.clear();
  routes_dirty_ = true;
}

}  // namespace manet::olsr
