#include "phy/channel.hpp"

#include <algorithm>
#include <span>

#include "core/assert.hpp"

namespace manet {

Channel::Channel(Simulator& sim, const PhyConfig& cfg, Area area, SimTime refresh,
                 std::uint64_t seed)
    : sim_(sim),
      cfg_(cfg),
      grid_(area, cfg.cs_range_m),
      refresh_(refresh),
      loss_rng_(seed, "channel-loss"),
      fault_rng_(seed, "fault-corrupt"),
      shadow_rng_(seed, "urban-shadow") {
  MANET_EXPECTS(refresh > SimTime::zero());
  MANET_EXPECTS(cfg.frame_loss_rate >= 0.0 && cfg.frame_loss_rate < 1.0);
  MANET_EXPECTS(cfg.street_width_m >= 0.0);
  MANET_EXPECTS(cfg.nlos_loss_rate >= 0.0 && cfg.nlos_loss_rate < 1.0);
  if (cfg.urban()) MANET_EXPECTS(cfg.nlos_rx_range_m > 0.0 && cfg.nlos_rx_range_m <= cfg.rx_range_m);
}

void Channel::add(Transceiver* trx, MobilityModel* mob) {
  MANET_EXPECTS(trx != nullptr && mob != nullptr);
  MANET_EXPECTS(trx->id() == trx_.size());  // dense registration order
  trx->attach_channel(this);
  trx_.push_back(trx);
  mob_.push_back(mob);
  reach_.emplace_back();
  max_speed_ = std::max(max_speed_, mob->max_speed());
  const std::uint32_t gid = grid_.insert(mob->position_at(sim_.now()));
  MANET_ASSERT(gid == trx->id());
  next_epoch();  // the new node is in no kept reach
}

void Channel::start() {
  sim_.schedule(refresh_, [this] { refresh_positions(); });
}

void Channel::refresh_positions() {
  bool moved = max_speed_ > 0.0;
  // manet-lint: allow-node-scan - periodic 4 Hz grid refresh, not per-event
  for (std::uint32_t i = 0; i < trx_.size(); ++i) {
    const Vec2 p = mob_[i]->position_at(sim_.now());
    moved = moved || distance2(p, grid_.position(i)) > 0.0;
    grid_.update(i, p);
  }
  if (moved) next_epoch();
  sim_.schedule(refresh_, [this] { refresh_positions(); });
}

void Channel::next_epoch() {
  ++epoch_;
  reach_ids_.clear();
  reach_order_.clear();
}

Vec2 Channel::position_of(NodeId id) {
  MANET_EXPECTS(id < mob_.size());
  const Vec2 p = mob_[id]->position_at(sim_.now());
  if (distance2(p, grid_.position(id)) > 0.0) {
    // A node of a static field moved: only a teleport does that.
    if (max_speed_ <= 0.0) next_epoch();
    grid_.update(id, p);
  }
  return p;
}

void Channel::keep_reach(Reach& r, Vec2 src) {
  const auto n = static_cast<std::uint32_t>(scratch_.size());
  by_distance_.clear();
  for (std::uint32_t k = 0; k < n; ++k) {
    by_distance_.emplace_back(distance2(grid_.position(scratch_[k]), src), k);
  }
  std::sort(by_distance_.begin(), by_distance_.end());
  r.offset = static_cast<std::uint32_t>(reach_ids_.size());
  r.size = n;
  reach_ids_.insert(reach_ids_.end(), scratch_.begin(), scratch_.end());
  for (const auto& [d2, k] : by_distance_) reach_order_.push_back(k);
}

SimTime Channel::transmit(NodeId sender, const Packet& frame) {
  MANET_EXPECTS(sender < trx_.size());
  const SimTime airtime = cfg_.airtime(frame.size_bytes());
  if (observer_ != nullptr) observer_->on_transmit(sender, frame);
  // A crashed sender radiates nothing. (The node gates its own sends too;
  // this catches MAC events already in flight at the crash instant.)
  if (fault_ != nullptr && fault_->node_down(sender)) return airtime;
  const Vec2 src = position_of(sender);  // may end a static field's epoch
  const double corrupt_rate = fault_ != nullptr ? fault_->corrupt_rate() : 0.0;

  // The sender's reach: kept from its second transmission in this epoch on,
  // queried afresh into scratch_ before that.
  Reach& r = reach_[sender];
  if (r.epoch != epoch_ || r.offset == kNone) {
    scratch_.clear();
    grid_.query(src, cfg_.cs_range_m + slack(), sender, scratch_);
    if (r.epoch == epoch_) {
      keep_reach(r, src);
    } else {
      r.epoch = epoch_;
      r.offset = kNone;
    }
  }
  const bool kept = r.offset != kNone;
  const std::uint32_t* const ids = kept ? reach_ids_.data() + r.offset : scratch_.data();
  const std::uint32_t n = kept ? r.size : static_cast<std::uint32_t>(scratch_.size());
  if (kept) slot_.assign(n, kNone);

  const double rx2 = cfg_.rx_range_m * cfg_.rx_range_m;
  const double cs2 = cfg_.cs_range_m * cfg_.cs_range_m;
  const bool urban = cfg_.urban();
  const double nlos_rx2 = cfg_.nlos_rx_range_m * cfg_.nlos_rx_range_m;
  Transmission* t = nullptr;  // taken at the first decodable arrival
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t id = ids[k];
    // A down receiver absorbs nothing — not even carrier energy; its radio
    // is off. A blacked-out or partition-cut link is silent in both
    // directions. Both checks precede any RNG draw so that fault-free runs
    // consume the loss stream identically with or without a FaultRuntime.
    if (fault_ != nullptr && fault_->node_down(id)) continue;
    const Vec2 dst = mob_[id]->position_at(sim_.now());
    if (fault_ != nullptr && fault_->link_blocked(sender, id, src, dst)) continue;
    const double d2 = distance2(src, dst);
    if (d2 > cs2) continue;
    const SimTime prop = cfg_.propagation(std::sqrt(d2));
    bool faded = cfg_.frame_loss_rate > 0.0 && loss_rng_.chance(cfg_.frame_loss_rate);
    // Urban street-canyon shadowing: an NLOS pair decodes only within the
    // short diffraction range, and then only past an extra loss draw. The
    // shadow stream is consumed solely on urban NLOS decode candidates, so
    // open-field runs (urban == false) draw exactly as before — the pinned
    // goldens never see this branch. Interference (the carrier-only path
    // below) is untouched: energy still trips carrier sense at cs_range.
    if (urban && d2 <= rx2 && !cfg_.line_of_sight(src, dst)) {
      if (d2 > nlos_rx2) {
        faded = true;
      } else if (!faded && cfg_.nlos_loss_rate > 0.0 && shadow_rng_.chance(cfg_.nlos_loss_rate)) {
        faded = true;
      }
    }
    if (d2 <= rx2 && !faded && corrupt_rate > 0.0 && fault_rng_.chance(corrupt_rate)) {
      // Channel corruption: the frame still arrives as interference (the
      // carrier-only path below), it just cannot be decoded.
      faded = true;
      if (stats_ != nullptr) stats_->on_fault_corruption();
    }
    // A faded or out-of-range arrival is carrier/interference only.
    const bool decodable = d2 <= rx2 && !faded;
    // Nothing else takes an order number inside this loop, so the arrivals'
    // numbers are contiguous, in candidate-scan order.
    const SimTime start = sim_.now() + prop;
    const std::uint64_t start_order = sim_.reserve_order();
    const std::uint64_t end_order = sim_.reserve_order();
    if (decodable) {
      if (t == nullptr) {
        t = acquire();
        t->frame = frame;
      }
      if (kept) slot_[k] = static_cast<std::uint32_t>(t->ends.size());
      t->ends.push_back({start + airtime, end_order, trx_[id]});
    }
    trx_[id]->add_arrival(start, start_order, end_order, airtime,
                          decodable ? &t->frame : nullptr);
  }
  if (t == nullptr) return airtime;
  const auto before = [](const Delivery& a, const Delivery& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  };
  if (kept) {
    // Insertion in the cached distance order: each end moves past only the
    // ones it overtook since the query.
    sorted_.clear();
    for (const std::uint32_t k : std::span(reach_order_.data() + r.offset, n)) {
      if (slot_[k] == kNone) continue;
      sorted_.push_back(t->ends[slot_[k]]);
      for (std::size_t j = sorted_.size() - 1; j > 0 && before(sorted_[j], sorted_[j - 1]); --j) {
        std::swap(sorted_[j], sorted_[j - 1]);
      }
    }
    std::swap(t->ends, sorted_);
  } else {
    std::sort(t->ends.begin(), t->ends.end(), before);
  }
  schedule_end(t);
  return airtime;
}

Channel::Transmission* Channel::acquire() {
  if (free_.empty()) {
    records_.push_back(std::make_unique<Transmission>());
    return records_.back().get();
  }
  Transmission* t = free_.back();
  free_.pop_back();
  return t;
}

void Channel::schedule_end(Transmission* t) {
  const Delivery& d = t->ends[t->next];
  sim_.schedule_at(d.at, d.order, [this, t] { run_end(t); });
}

void Channel::run_end(Transmission* t) {
  const Delivery d = t->ends[t->next++];
  const bool last = t->next == t->ends.size();
  if (!last) schedule_end(t);
  d.rx->end_decodable(d.order);
  if (last) release(t);
}

void Channel::release(Transmission* t) {
  t->ends.clear();
  t->next = 0;
  free_.push_back(t);
}

void Channel::neighbors_of(NodeId id, double radius, std::vector<NodeId>& out) {
  const Vec2 p = position_of(id);
  // A single query needs one v_max · refresh of slack: the grid slots are
  // at most one refresh old, and p is exact.
  out.clear();
  grid_.query(p, radius + slack(), id, out);
  const double r2 = radius * radius;
  std::erase_if(out, [&](NodeId cand) {
    return distance2(p, mob_[cand]->position_at(sim_.now())) > r2;
  });
}

}  // namespace manet
