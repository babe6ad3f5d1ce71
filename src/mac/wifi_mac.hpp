// IEEE 802.11-DCF-style MAC.
//
// Implements the protocol-visible behaviours the routing comparison depends
// on, with the standard's timing constants:
//   * CSMA/CA: physical carrier sense (from the transceiver) plus virtual
//     carrier sense (NAV from overheard RTS/CTS/DATA duration fields);
//   * DIFS deferral and binary-exponential backoff (CW 31 -> 1023), with the
//     backoff counter frozen while the medium is busy;
//   * RTS/CTS/DATA/ACK exchange for unicast, with separate short (7) and
//     long (4) retry limits; retry exhaustion is reported upward as a link
//     failure — this is the 802.11 link-layer feedback AODV/DSR/CBRP use for
//     route-error generation;
//   * broadcast data sent after DIFS+backoff with no RTS/CTS/ACK (and hence
//     unreliable under contention — the root cause of several effects in the
//     paper family's plots);
//   * a 50-packet drop-tail interface queue;
//   * receive-side duplicate filtering via per-sender sequence numbers.
//
// Simplifications (documented in DESIGN.md): no EIFS, no capture effect, a
// single rate for all frames plus a fixed PLCP preamble.
//
// Edges only in contention. The MAC tells its transceiver when it enters and
// leaves kContend (set_contending), and the transceiver delivers busy and
// idle edges only in between, so a medium step at a receiver that is not
// contending costs no event. That is exact because of this contract, checked
// on every state change in Debug builds (timers_match_state): the DIFS, NAV
// and backoff timers are pending only in kContend. Outside it, a busy edge
// would cancel timers that are not pending and freeze a backoff that is not
// running, and an idle edge would reach a medium_check() that returns at
// once. What an idle edge also did, record the last idle instant, the
// transceiver now answers from its ledger (Transceiver::idle_since).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "mac/mac_config.hpp"
#include "packet/packet.hpp"
#include "phy/transceiver.hpp"
#include "stats/stats.hpp"

namespace manet {

/// Upward interface implemented by the Node.
class MacListener {
 public:
  virtual ~MacListener() = default;
  /// An intact, non-duplicate frame addressed to this node (or broadcast).
  virtual void mac_deliver(const Packet& frame) = 0;
  /// Unicast delivery to `next_hop` failed after all retries.
  virtual void mac_link_failure(const Packet& frame, NodeId next_hop) = 0;
};

class WifiMac final : public PhyListener {
 public:
  // IEEE 802.11 DSSS DCF timing, as configured in the ns-2 CMU wireless
  // stack (2 Mbit/s WaveLAN).
  static constexpr SimTime kSlot = microseconds(20);
  static constexpr SimTime kSifs = microseconds(10);
  static constexpr SimTime kDifs = kSifs + 2 * kSlot;
  static constexpr std::uint32_t kCwMin = 31;
  static constexpr std::uint32_t kCwMax = 1023;
  /// Attempts for the RTS stage, or for data sent without RTS.
  static constexpr int kShortRetryLimit = 7;
  /// Attempts for the data stage after a successful RTS/CTS handshake.
  static constexpr int kLongRetryLimit = 4;

  WifiMac(Simulator& sim, const MacConfig& cfg, Transceiver& trx, StatsCollector& stats,
          RngStream rng);

  void set_listener(MacListener* l) { listener_ = l; }

  /// Queue a frame for transmission. `pkt.mac.dst` must already hold the
  /// next-hop (or broadcast) address; everything else MAC-related is filled
  /// in here.
  void enqueue(Packet pkt);

  /// Number of frames waiting (including the one in service).
  [[nodiscard]] std::size_t queue_length() const {
    return ifq_.size() + (current_.has_value() ? 1 : 0);
  }

  /// Fault injection: the node crashed. Cancels every pending MAC event,
  /// drops the frame in service and the whole interface queue (data packets
  /// are charged to DropReason::kNodeDown), and returns to a cold idle state
  /// (fresh contention window, cleared NAV and duplicate-filter memory).
  /// The transmit sequence counter survives so post-restart frames are never
  /// mistaken for retries of pre-crash ones.
  void reset();

  // PhyListener:
  void phy_busy_start() override;
  void phy_busy_end() override;
  void phy_rx(const Packet& frame) override;

  enum class State : std::uint8_t {
    kIdle,      // nothing in service
    kContend,   // waiting for DIFS/backoff to transmit `current_`
    kWaitCts,   // RTS sent, awaiting CTS
    kSendData,  // CTS received, DATA scheduled after SIFS
    kWaitAck,   // DATA sent, awaiting ACK
  };
  [[nodiscard]] State state() const { return state_; }
  /// The contract that lets a non-contending MAC skip medium edges: the
  /// DIFS, NAV and backoff timers are pending only in kContend.
  [[nodiscard]] bool timers_match_state() const;

 private:
  /// The interface queue: a FIFO ring over a vector. It allocates at the
  /// first frame that has to wait (most MACs of a large field never queue
  /// one), grows by doubling up to the IFQ capacity, and moves no element
  /// when a frame leaves.
  class FrameRing {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] Packet& front() { return slots_[head_]; }
    void push_back(Packet&& pkt, std::size_t capacity);
    /// Drops the front slot from the queue. Callers move the frame out of
    /// front() first, so the slot keeps no payload alive until it is reused.
    void pop_front() {
      head_ = next(head_);
      --size_;
    }

   private:
    [[nodiscard]] std::size_t next(std::size_t i) const {
      return i + 1 == slots_.size() ? 0 : i + 1;
    }
    std::vector<Packet> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// Every state change goes through here, so the transceiver knows when
  /// the MAC contends.
  void set_state(State s);

  // -- contention engine ------------------------------------------------------
  void start_service();          // begin serving the next queued frame
  void begin_contention();
  void medium_check();
  void difs_elapsed();
  void backoff_done();
  void freeze_backoff();
  [[nodiscard]] bool medium_free() const;
  [[nodiscard]] SimTime idle_since() const;

  // -- transmit paths -----------------------------------------------------------
  void transmit_current();
  void transmit_data_frame();    // the DATA frame of the current exchange
  void schedule_response(Packet frame);  // CTS/ACK after SIFS
  void count_tx(const Packet& frame);

  // -- outcome handling -----------------------------------------------------
  void cts_timeout();
  void ack_timeout();
  void handle_retry(bool short_stage);
  void finish_current(bool success);

  // -- receive side ----------------------------------------------------------
  void update_nav(SimTime duration);

  Simulator& sim_;
  MacConfig cfg_;
  Transceiver& trx_;
  StatsCollector& stats_;
  RngStream rng_;
  MacListener* listener_ = nullptr;

  FrameRing ifq_;
  std::optional<Packet> current_;
  State state_ = State::kIdle;

  int short_retries_ = 0;
  int long_retries_ = 0;
  std::uint32_t cw_;
  std::uint32_t backoff_slots_ = 0;
  SimTime backoff_started_ = SimTime::zero();

  SimTime nav_until_ = SimTime::zero();

  EventId difs_ev_ = kInvalidEventId;
  EventId nav_ev_ = kInvalidEventId;
  EventId backoff_ev_ = kInvalidEventId;
  EventId timeout_ev_ = kInvalidEventId;

  std::uint16_t tx_seq_ = 0;
  // Ordered (keyed-only today): duplicate-filter state must never expose
  // hash order if someone later iterates it for stats or expiry.
  std::map<NodeId, std::uint16_t> rx_last_seq_;
};

}  // namespace manet
