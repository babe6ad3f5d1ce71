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
// The energy ledger. The channel appends every arrival to its receiver's
// ledger when the frame is sent: start and end instants, the order numbers
// the channel reserved for both, and the decodable frame, if any (it points
// into the channel's record, which outlives the arrival's end). An arrival
// has two steps, its start and its end, and the transceiver applies each at
// its (time, order) point, as if each were its own event:
//   * start: ignored if the radio is down; otherwise the energy rises, and a
//     second overlapping arrival, or our own transmission, corrupts frames;
//   * end: the energy falls; a decodable frame is delivered or counted as
//     corrupt; the medium may go idle, which records the last idle instant.
// Most steps are not events. A step is applied lazily the next time anything
// looks at the ledger at a later point — a query, a transmission, a radio
// switch, the next append, a delivery, or settle() at the horizon — in
// (time, order) order, before the look. Nothing else changes the state the
// steps read (the energy count, transmitting_, down_) except calls that
// first apply every step before their own point, so a lazy step reads
// exactly what its event would have read.
//
// A step is an event only when something observes it at its instant:
//   * the end of a decodable frame (the channel's delivery chain), for the
//     delivery or the corruption count;
//   * every step while edges are wanted: the listener hears busy and idle
//     edges, which must run at their own points among other events.
// Edges are wanted while a listener is attached, except that a MAC that
// calls set_contending() wants them only while it contends for the medium:
// outside contention its edges change nothing but the last idle instant,
// which idle_since() answers from the ledger (wifi_mac.hpp states the
// contract). When edges become wanted, every step still ahead gets its
// event, at the order number reserved for it. A step lazily applied is one
// no event could have observed.
//
// Inside a decodable end the energy falls first, then the frame goes up,
// then the idle edge and the last idle instant are applied:
// finish_decodable() holds that order in one place.
#pragma once

#include <cstdint>
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
  // Energy model (ns-2 WaveLAN-style draws, joules = watts x seconds).
  static constexpr double kTxPowerW = 1.4;  ///< transmit power draw
  static constexpr double kRxPowerW = 1.0;  ///< receive power draw

  Transceiver(Simulator& sim, const PhyConfig& cfg, NodeId id);

  void attach_channel(Channel* ch) { channel_ = ch; }
  /// Attach the listener; from now on it hears every edge unless the MAC
  /// gates them with set_contending().
  void set_listener(PhyListener* l);
  /// Optional energy/collision accounting sink.
  void set_stats(StatsCollector* s) { stats_ = s; }
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const PhyConfig& config() const { return cfg_; }

  /// True while transmitting or while any in-range energy is arriving, at
  /// the simulator's current point.
  [[nodiscard]] bool medium_busy();
  [[nodiscard]] bool transmitting() const { return transmitting_; }
  /// When the medium last went from busy to idle (zero if it never has), at
  /// the current point. Inside a decodable end, while the frame goes up,
  /// this is still the instant before that end.
  [[nodiscard]] SimTime idle_since();

  /// The MAC enters (true) or leaves (false) contention for the medium. The
  /// first call gates the edges: from then on the listener hears them only
  /// while contending.
  void set_contending(bool contending);

  /// Start transmitting `frame`; the caller (MAC) guarantees its own access
  /// rules. Returns the time on air.
  SimTime transmit(const Packet& frame);

  // -- called by the Channel --------------------------------------------------
  /// Energy (and possibly a decodable frame) arrives over [start, start +
  /// airtime), its steps at the reserved order numbers `start_order` and
  /// `end_order`; `start` is not in the past. `frame` is null for
  /// carrier-only arrivals (transmitter beyond rx range but within
  /// carrier-sense range); otherwise it must stay valid until the end, and
  /// the channel runs end_decodable(end_order) there.
  void add_arrival(SimTime start, std::uint64_t start_order, std::uint64_t end_order,
                   SimTime airtime, const Packet* frame);
  /// The decodable arrival whose end is `end_order` ends: the running event.
  /// A no-op if the radio was down at its start.
  void end_decodable(std::uint64_t end_order);

  /// Apply every step before the current point. Scenario::run() calls it at
  /// the horizon, so the rx energy counts every arrival that ended by then.
  void settle() { apply_until(sim_.point()); }
  /// Arrivals in the ledger: those whose end has not been applied.
  [[nodiscard]] std::size_t ledger_size() const { return ledger_.size(); }

  // -- fault injection --------------------------------------------------------
  /// Power the radio down/up. While down, new arrivals are ignored and any
  /// reception already in flight is corrupted; its end still lowers the
  /// energy, keeping the bookkeeping balanced.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

  // -- introspection for tests -----------------------------------------------
  [[nodiscard]] std::uint64_t frames_received() const { return frames_rx_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const { return frames_corrupt_; }

 private:
  struct Arrival {
    SimPoint start;
    SimPoint end;
    const Packet* frame;  // decodable content, owned by the channel; null if carrier only
    bool started = false;    // start applied with the radio up: the energy is on
    bool corrupted = false;
    bool evented = false;    // its steps are events (edges wanted)
  };
  static constexpr SimPoint kNever{SimTime::max(), UINT64_MAX};

  [[nodiscard]] bool busy() const { return transmitting_ || rx_energy_ > 0; }
  [[nodiscard]] bool edges_wanted() const {
    return listener_ != nullptr && (!gated_ || contending_);
  }
  /// The point of the arrival's next step if it is applied lazily, else kNever.
  [[nodiscard]] static SimPoint lazy_step(const Arrival& a);
  /// Apply, in order, every lazy step before `p`.
  void apply_until(SimPoint p);
  void find_next_lazy();
  /// Give every step still ahead its event (edges became wanted).
  void schedule_steps();
  void schedule_step(SimPoint at);
  /// The event of a step at `at`: apply everything before it, then it.
  void run_step(SimPoint at);
  /// Apply the start of ledger_[i]; if the radio is down, drop the arrival.
  void apply_start(std::size_t i, bool notify);
  /// Apply the end of carrier-only ledger_[i] and drop it.
  void apply_carrier_end(std::size_t i, bool notify);
  /// The end of a decodable frame, dropped from the ledger already.
  void finish_decodable(const Arrival& a);
  void went_idle(SimTime at, bool notify);
  void tx_end();

  Simulator& sim_;
  PhyConfig cfg_;
  NodeId id_;
  Channel* channel_ = nullptr;
  PhyListener* listener_ = nullptr;
  StatsCollector* stats_ = nullptr;

  bool transmitting_ = false;
  bool down_ = false;
  bool gated_ = false;
  bool contending_ = false;
  int rx_energy_ = 0;
  SimTime idle_since_ = SimTime::zero();
  std::vector<Arrival> ledger_;      // unordered; each entry until its end is applied
  SimPoint next_lazy_ = kNever;      // earliest lazy step in the ledger
  std::uint64_t frames_rx_ = 0;
  std::uint64_t frames_corrupt_ = 0;
};

}  // namespace manet
