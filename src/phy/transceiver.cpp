#include "phy/transceiver.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "phy/channel.hpp"

namespace manet {

Transceiver::Transceiver(Simulator& sim, const PhyConfig& cfg, NodeId id)
    : sim_(sim), cfg_(cfg), id_(id) {}

void Transceiver::update_busy_edges(bool was_busy) {
  const bool busy = medium_busy();
  if (busy == was_busy || listener_ == nullptr) return;
  if (busy) {
    listener_->phy_busy_start();
  } else {
    listener_->phy_busy_end();
  }
}

SimTime Transceiver::transmit(const Packet& frame) {
  MANET_EXPECTS(channel_ != nullptr);
  MANET_EXPECTS(!transmitting_);
  const bool was_busy = medium_busy();
  transmitting_ = true;
  // Half-duplex: anything arriving right now is lost.
  for (auto& rx : active_) rx.corrupted = true;
  const SimTime airtime = channel_->transmit(id_, frame);
  if (stats_ != nullptr) stats_->on_tx_energy(cfg_.tx_power_w * airtime.sec());
  sim_.schedule(airtime, [this] { tx_end(); });
  update_busy_edges(was_busy);
  return airtime;
}

void Transceiver::tx_end() {
  MANET_ASSERT(transmitting_);
  const bool was_busy = medium_busy();
  transmitting_ = false;
  update_busy_edges(was_busy);
}

void Transceiver::set_down(bool down) {
  down_ = down;
  if (down) {
    // A crash mid-reception loses the frame; the pending rx_end events still
    // drain active_ and rx_energy_ normally.
    for (auto& rx : active_) rx.corrupted = true;
  }
}

std::optional<std::uint64_t> Transceiver::rx_start(const Packet* frame, SimTime airtime) {
  if (down_) return std::nullopt;
  const bool was_busy = medium_busy();
  // The end's order is taken here, before the MAC hears the busy edge, so
  // it sorts before anything the MAC schedules in response.
  ActiveRx rx{sim_.reserve_order(), airtime, frame, false};
  // Collision rule: a second overlapping arrival corrupts every decodable
  // frame in flight, including the new one. Carrier-only arrivals corrupt
  // decodable frames too (they are interference), and vice versa.
  if (!active_.empty()) {
    for (auto& other : active_) other.corrupted = true;
    rx.corrupted = true;
  }
  // Receiving while transmitting: frame lost (half-duplex).
  if (transmitting_) rx.corrupted = true;

  ++rx_energy_;
  active_.push_back(rx);
  update_busy_edges(was_busy);
  return rx.end_seq;
}

void Transceiver::rx_end(std::uint64_t end_seq) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [end_seq](const ActiveRx& r) { return r.end_seq == end_seq; });
  MANET_ASSERT(it != active_.end());
  const bool was_busy = medium_busy();
  const ActiveRx rx = *it;
  active_.erase(it);
  --rx_energy_;
  MANET_ASSERT(rx_energy_ >= 0);

  if (stats_ != nullptr) stats_->on_rx_energy(cfg_.rx_power_w * rx.airtime.sec());
  if (rx.frame != nullptr) {
    // A frame whose tail overlapped our own transmission is also lost.
    if (rx.corrupted || transmitting_) {
      ++frames_corrupt_;
      if (stats_ != nullptr) stats_->on_collision();
    } else {
      ++frames_rx_;
      if (listener_ != nullptr) listener_->phy_rx(*rx.frame);
    }
  }
  update_busy_edges(was_busy);
}

}  // namespace manet
