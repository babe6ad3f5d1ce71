// Per-node radio transceiver.
//
// Models a half-duplex radio with carrier sensing and receiver-side collision
// behaviour:
//   * the medium is "busy" whenever the node is transmitting or any energy
//     from transmissions within carrier-sense range is arriving;
//   * two receptions overlapping in time at a receiver corrupt each other
//     (no capture effect — a deliberately pessimistic simplification noted in
//     DESIGN.md);
//   * transmitting while a frame is arriving corrupts that frame
//     (half-duplex).
// The MAC observes the medium through busy()/idle edges and receives only
// frames that survived uncorrupted.
//
// The channel drives reception: its per-transmission chains (channel.hpp)
// call rx_start() and, one airtime later, rx_end(). rx_start() schedules
// nothing: it reserves the rx_end's order number and hands it back. A
// decodable frame is not copied; the arrival points into the channel's
// record, which outlives its rx_end.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/simulator.hpp"
#include "packet/packet.hpp"
#include "phy/phy_config.hpp"
#include "stats/stats.hpp"

namespace manet {

class Channel;

/// Callbacks the MAC registers with its transceiver.
class PhyListener {
 public:
  virtual ~PhyListener() = default;
  /// The medium transitioned idle -> busy.
  virtual void phy_busy_start() = 0;
  /// The medium transitioned busy -> idle.
  virtual void phy_busy_end() = 0;
  /// A frame arrived intact.
  virtual void phy_rx(const Packet& frame) = 0;
};

class Transceiver {
 public:
  Transceiver(Simulator& sim, const PhyConfig& cfg, NodeId id);

  void attach_channel(Channel* ch) { channel_ = ch; }
  void set_listener(PhyListener* l) { listener_ = l; }
  /// Optional energy/collision accounting sink.
  void set_stats(StatsCollector* s) { stats_ = s; }
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const PhyConfig& config() const { return cfg_; }

  /// True while transmitting or while any in-range energy is arriving.
  [[nodiscard]] bool medium_busy() const { return transmitting_ || rx_energy_ > 0; }
  [[nodiscard]] bool transmitting() const { return transmitting_; }

  /// Start transmitting `frame`; the caller (MAC) guarantees its own access
  /// rules. Returns the time on air.
  SimTime transmit(const Packet& frame);

  // -- called by the Channel --------------------------------------------------
  /// Energy (and possibly a decodable frame) starts arriving for `airtime`.
  /// `frame` is null for carrier-only arrivals (transmitter beyond rx range
  /// but within carrier-sense range); otherwise it must stay valid until the
  /// matching rx_end(). Returns the order reserved for that rx_end, which
  /// the channel runs at now + airtime, and which also names the arrival.
  /// Returns nothing when the radio is down: the arrival is ignored and no
  /// rx_end follows.
  [[nodiscard]] std::optional<std::uint64_t> rx_start(const Packet* frame, SimTime airtime);
  /// The arrival named `end_seq` stops; its frame, if intact, goes up to
  /// the MAC.
  void rx_end(std::uint64_t end_seq);

  // -- fault injection --------------------------------------------------------
  /// Power the radio down/up. While down, new arrivals are ignored and any
  /// reception already in flight is corrupted; rx_end() for those still
  /// runs, keeping the energy bookkeeping balanced.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

  // -- introspection for tests -----------------------------------------------
  [[nodiscard]] std::uint64_t frames_received() const { return frames_rx_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const { return frames_corrupt_; }

 private:
  struct ActiveRx {
    std::uint64_t end_seq;  // unique: each order number is handed out once
    SimTime airtime;
    const Packet* frame;  // decodable content, owned by the channel; null if carrier only
    bool corrupted;
  };

  void tx_end();
  void update_busy_edges(bool was_busy);

  Simulator& sim_;
  PhyConfig cfg_;
  NodeId id_;
  Channel* channel_ = nullptr;
  PhyListener* listener_ = nullptr;
  StatsCollector* stats_ = nullptr;

  bool transmitting_ = false;
  bool down_ = false;
  int rx_energy_ = 0;
  std::vector<ActiveRx> active_;
  std::uint64_t frames_rx_ = 0;
  std::uint64_t frames_corrupt_ = 0;
};

}  // namespace manet
