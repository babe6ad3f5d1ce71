#include "phy/transceiver.hpp"

#include "core/assert.hpp"
#include "phy/channel.hpp"

namespace manet {

Transceiver::Transceiver(Simulator& sim, const PhyConfig& cfg, NodeId id)
    : sim_(sim), cfg_(cfg), id_(id) {}

void Transceiver::set_listener(PhyListener* l) {
  const bool wanted = edges_wanted();
  listener_ = l;
  if (!wanted && edges_wanted()) schedule_steps();
}

void Transceiver::set_contending(bool contending) {
  const bool wanted = edges_wanted();
  gated_ = true;
  contending_ = contending;
  if (!wanted && edges_wanted()) schedule_steps();
}

bool Transceiver::medium_busy() {
  apply_until(sim_.point());
  return busy();
}

SimTime Transceiver::idle_since() {
  apply_until(sim_.point());
  return idle_since_;
}

SimTime Transceiver::transmit(const Packet& frame) {
  MANET_EXPECTS(channel_ != nullptr);
  MANET_EXPECTS(!transmitting_);
  apply_until(sim_.point());
  const bool was_busy = busy();
  transmitting_ = true;
  // Half-duplex: anything arriving right now is lost.
  for (Arrival& a : ledger_) {
    if (a.started) a.corrupted = true;
  }
  const SimTime airtime = channel_->transmit(id_, frame);
  sim_.schedule(airtime, [this] { tx_end(); });
  if (!was_busy && edges_wanted()) listener_->phy_busy_start();
  return airtime;
}

void Transceiver::tx_end() {
  MANET_ASSERT(transmitting_);
  apply_until(sim_.point());
  transmitting_ = false;
  if (!busy()) went_idle(sim_.now(), edges_wanted());
}

void Transceiver::set_down(bool down) {
  apply_until(sim_.point());
  down_ = down;
  if (down) {
    // A crash mid-reception loses the frame; its end still lowers the energy.
    for (Arrival& a : ledger_) {
      if (a.started) a.corrupted = true;
    }
  }
}

// ---------------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------------

void Transceiver::add_arrival(SimTime start, std::uint64_t start_order, std::uint64_t end_order,
                              SimTime airtime, const Packet* frame) {
  MANET_EXPECTS(start >= sim_.now());
  apply_until(sim_.point());  // drops every arrival that has ended
  Arrival a{{start, start_order}, {start + airtime, end_order}, frame};
  if (edges_wanted()) {
    a.evented = true;
    schedule_step(a.start);
    if (frame == nullptr) schedule_step(a.end);
  } else if (a.start < next_lazy_) {
    next_lazy_ = a.start;
  }
  ledger_.push_back(a);
}

SimPoint Transceiver::lazy_step(const Arrival& a) {
  if (a.evented) return kNever;
  if (!a.started) return a.start;
  return a.frame == nullptr ? a.end : kNever;  // a decodable end is always an event
}

void Transceiver::find_next_lazy() {
  next_lazy_ = kNever;
  for (const Arrival& a : ledger_) {
    const SimPoint p = lazy_step(a);
    if (p < next_lazy_) next_lazy_ = p;
  }
}

void Transceiver::apply_until(SimPoint p) {
  while (next_lazy_ < p) {
    std::size_t i = 0;
    while (lazy_step(ledger_[i]) != next_lazy_) ++i;
    if (ledger_[i].started) {
      apply_carrier_end(i, false);
    } else {
      apply_start(i, false);
    }
    find_next_lazy();
  }
}

void Transceiver::schedule_steps() {
  apply_until(sim_.point());
  for (Arrival& a : ledger_) {
    if (a.evented) continue;
    a.evented = true;
    if (!a.started) schedule_step(a.start);
    if (a.frame == nullptr) schedule_step(a.end);
  }
  next_lazy_ = kNever;
}

void Transceiver::schedule_step(SimPoint at) {
  sim_.schedule_at(at.time, at.order, [this, at] { run_step(at); });
}

void Transceiver::run_step(SimPoint at) {
  apply_until(at);
  for (std::size_t i = 0; i < ledger_.size(); ++i) {
    const Arrival& a = ledger_[i];
    if (!a.started && a.start == at) {
      apply_start(i, edges_wanted());
      return;
    }
    if (a.started && a.end == at) {
      apply_carrier_end(i, edges_wanted());
      return;
    }
  }
  // The radio was down at this arrival's start: it was dropped there.
}

void Transceiver::apply_start(std::size_t i, bool notify) {
  if (down_) {
    ledger_[i] = ledger_.back();
    ledger_.pop_back();
    return;
  }
  const bool was_busy = busy();
  // Collision rule: a second overlapping arrival corrupts every decodable
  // frame in flight, including the new one. Carrier-only arrivals corrupt
  // decodable frames too (they are interference), and vice versa.
  if (rx_energy_ > 0) {
    for (Arrival& other : ledger_) {
      if (other.started) other.corrupted = true;
    }
    ledger_[i].corrupted = true;
  }
  // Receiving while transmitting: frame lost (half-duplex).
  if (transmitting_) ledger_[i].corrupted = true;
  ledger_[i].started = true;
  ++rx_energy_;
  if (!was_busy && notify) listener_->phy_busy_start();
}

void Transceiver::apply_carrier_end(std::size_t i, bool notify) {
  const SimTime end = ledger_[i].end.time;
  ledger_[i] = ledger_.back();
  ledger_.pop_back();
  --rx_energy_;
  MANET_ASSERT(rx_energy_ >= 0);
  if (!busy()) went_idle(end, notify);
}

void Transceiver::end_decodable(std::uint64_t end_order) {
  apply_until(sim_.point());
  for (std::size_t i = 0; i < ledger_.size(); ++i) {
    if (!ledger_[i].started || ledger_[i].end.order != end_order) continue;
    const Arrival a = ledger_[i];
    ledger_[i] = ledger_.back();
    ledger_.pop_back();
    finish_decodable(a);
    return;
  }
  // The radio was down at this arrival's start: it was dropped there.
}

void Transceiver::finish_decodable(const Arrival& a) {
  // 1. The energy falls.
  --rx_energy_;
  MANET_ASSERT(rx_energy_ >= 0);
  // 2. The frame goes up, or is counted lost. A frame whose tail overlapped
  // our own transmission is also lost.
  if (a.corrupted || transmitting_) {
    ++frames_corrupt_;
  } else {
    ++frames_rx_;
    if (listener_ != nullptr) listener_->phy_rx(*a.frame);
  }
  // 3. The idle edge and the last idle instant, after the delivery: a MAC
  // that reacts to the frame still reads the previous idle instant. That is
  // the MAC contention defect DESIGN.md's "Packet delivery" notes describe;
  // its fix moves this step ahead of step 2.
  if (!busy()) went_idle(sim_.now(), edges_wanted());
}

void Transceiver::went_idle(SimTime at, bool notify) {
  idle_since_ = at;
  if (notify) listener_->phy_busy_end();
}

}  // namespace manet
