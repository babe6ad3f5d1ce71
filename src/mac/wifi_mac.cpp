#include "mac/wifi_mac.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace manet {

namespace {
// Safety margin added to CTS/ACK timeouts, covering turnaround slop.
constexpr SimTime kTimeoutMargin = microseconds(5);
}  // namespace

WifiMac::WifiMac(Simulator& sim, const MacConfig& cfg, Transceiver& trx, StatsCollector& stats,
                 RngStream rng)
    : sim_(sim), cfg_(cfg), trx_(trx), stats_(stats), rng_(rng), cw_(kCwMin) {
  trx_.set_listener(this);
  trx_.set_contending(false);
}

void WifiMac::set_state(State s) {
  state_ = s;
  trx_.set_contending(s == State::kContend);
#ifndef NDEBUG
  MANET_ASSERT_MSG(timers_match_state(), "node %u t=%lldns: a contention timer is pending in state %d",
                   static_cast<unsigned>(trx_.id()), static_cast<long long>(sim_.now().ns()),
                   static_cast<int>(s));
#endif
}

bool WifiMac::timers_match_state() const {
  return state_ == State::kContend ||
         (!sim_.pending(difs_ev_) && !sim_.pending(nav_ev_) && !sim_.pending(backoff_ev_));
}

// ---------------------------------------------------------------------------
// Queueing
// ---------------------------------------------------------------------------

void WifiMac::enqueue(Packet pkt) {
  pkt.mac.type = MacFrameType::kData;
  pkt.mac.src = trx_.id();
  pkt.mac.seq = tx_seq_++;
  pkt.mac.retry = false;
  if (!current_.has_value()) {
    current_ = std::move(pkt);
    set_state(State::kContend);
    begin_contention();
    return;
  }
  if (ifq_.size() >= cfg_.ifq_capacity) {
    if (pkt.kind == PacketKind::kData) stats_.on_data_dropped(DropReason::kIfqFull);
    return;
  }
  ifq_.push_back(std::move(pkt), cfg_.ifq_capacity);
}

void WifiMac::FrameRing::push_back(Packet&& pkt, std::size_t capacity) {
  if (size_ == slots_.size()) {
    // Full: move the frames, front first, into twice the slots (4 at the
    // first wait; at most `capacity`, which enqueue() never lets the ring
    // exceed).
    std::vector<Packet> grown(std::min(std::max<std::size_t>(2 * slots_.size(), 4), capacity));
    for (std::size_t i = 0, at = head_; i < size_; ++i, at = next(at)) {
      grown[i] = std::move(slots_[at]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }
  std::size_t tail = head_ + size_;
  if (tail >= slots_.size()) tail -= slots_.size();
  slots_[tail] = std::move(pkt);
  ++size_;
}

void WifiMac::reset() {
  sim_.cancel(difs_ev_);
  sim_.cancel(nav_ev_);
  sim_.cancel(backoff_ev_);
  sim_.cancel(timeout_ev_);
  if (current_.has_value()) {
    if (current_->kind == PacketKind::kData) stats_.on_data_dropped(DropReason::kNodeDown);
    current_.reset();
  }
  while (!ifq_.empty()) {
    const Packet dropped = std::move(ifq_.front());
    ifq_.pop_front();
    if (dropped.kind == PacketKind::kData) stats_.on_data_dropped(DropReason::kNodeDown);
  }
  set_state(State::kIdle);
  short_retries_ = long_retries_ = 0;
  cw_ = kCwMin;
  backoff_slots_ = 0;
  nav_until_ = SimTime::zero();
  rx_last_seq_.clear();
}

void WifiMac::start_service() {
  // The link-failure callback in finish_current() may re-enter enqueue() and
  // begin serving a new frame before we get here.
  if (current_.has_value()) return;
  if (ifq_.empty()) {
    set_state(State::kIdle);
    return;
  }
  current_ = std::move(ifq_.front());
  ifq_.pop_front();
  set_state(State::kContend);
  begin_contention();
}

// ---------------------------------------------------------------------------
// Contention engine: DIFS deferral + frozen-while-busy backoff
// ---------------------------------------------------------------------------

bool WifiMac::medium_free() const {
  return !trx_.medium_busy() && sim_.now() >= nav_until_;
}

SimTime WifiMac::idle_since() const {
  // The medium counts as busy through the end of the NAV even if physically
  // quiet, so the DIFS clock starts at whichever is later.
  return std::max(trx_.idle_since(), nav_until_);
}

void WifiMac::begin_contention() { medium_check(); }

void WifiMac::medium_check() {
  if (state_ != State::kContend) return;
  sim_.cancel(difs_ev_);
  sim_.cancel(nav_ev_);
  if (trx_.medium_busy()) {
    return;  // phy_busy_end will re-invoke us
  }
  if (sim_.now() < nav_until_) {
    nav_ev_ = sim_.schedule(nav_until_ - sim_.now(), [this] { medium_check(); });
    return;
  }
  const SimTime idle_for = sim_.now() - idle_since();
  if (idle_for >= kDifs) {
    difs_elapsed();
  } else {
    difs_ev_ = sim_.schedule(kDifs - idle_for, [this] { difs_elapsed(); });
  }
}

void WifiMac::difs_elapsed() {
  if (state_ != State::kContend) return;
  if (backoff_slots_ == 0) {
    transmit_current();
    return;
  }
  backoff_started_ = sim_.now();
  backoff_ev_ =
      sim_.schedule(kSlot * static_cast<std::int64_t>(backoff_slots_), [this] { backoff_done(); });
}

void WifiMac::backoff_done() {
  if (state_ != State::kContend) return;
  backoff_slots_ = 0;
  transmit_current();
}

void WifiMac::freeze_backoff() {
  if (!sim_.pending(backoff_ev_)) return;
  sim_.cancel(backoff_ev_);
  const auto elapsed =
      static_cast<std::uint32_t>((sim_.now() - backoff_started_) / kSlot);
  backoff_slots_ -= std::min(elapsed, backoff_slots_);
}

void WifiMac::phy_busy_start() {
  sim_.cancel(difs_ev_);
  sim_.cancel(nav_ev_);
  freeze_backoff();
}

void WifiMac::phy_busy_end() { medium_check(); }

void WifiMac::update_nav(SimTime duration) {
  const SimTime until = sim_.now() + duration;
  if (until <= nav_until_) return;
  nav_until_ = until;
  if (state_ == State::kContend) {
    sim_.cancel(difs_ev_);
    freeze_backoff();
    medium_check();
  }
}

// ---------------------------------------------------------------------------
// Transmit paths
// ---------------------------------------------------------------------------

void WifiMac::count_tx(const Packet& frame) {
  switch (frame.mac.type) {
    case MacFrameType::kRts:
    case MacFrameType::kCts:
    case MacFrameType::kAck:
      stats_.on_mac_ctrl_tx();
      return;
    case MacFrameType::kData: break;
  }
  switch (frame.kind) {
    case PacketKind::kData: stats_.on_data_tx(); break;
    case PacketKind::kRoutingControl: stats_.on_routing_tx(frame.size_bytes()); break;
    case PacketKind::kArp: stats_.on_arp_tx(); break;
  }
}

void WifiMac::transmit_current() {
  MANET_ASSERT(current_.has_value());
  if (trx_.transmitting()) {
    // We are mid-way through sending a CTS/ACK response; try again shortly.
    difs_ev_ = sim_.schedule(kSlot, [this] { medium_check(); });
    return;
  }
  const PhyConfig& phy = trx_.config();
  Packet& p = *current_;

  if (p.mac.dst == kBroadcast) {
    p.mac.duration = SimTime::zero();
    count_tx(p);
    const SimTime air = trx_.transmit(p);
    // No ACK for broadcast: the exchange completes when the air clears.
    // Tracked in timeout_ev_ (free on this path) so reset() can cancel it
    // if the node crashes mid-broadcast.
    timeout_ev_ = sim_.schedule(air, [this] { finish_current(true); });
    return;
  }

  const bool rts = cfg_.use_rts && p.size_bytes() >= cfg_.rts_threshold;
  if (rts) {
    const SimTime cts_air = phy.airtime(kMacCtsBytes);
    const SimTime data_air = phy.airtime(p.size_bytes());
    const SimTime ack_air = phy.airtime(kMacAckBytes);
    Packet rts_frame;
    rts_frame.mac.type = MacFrameType::kRts;
    rts_frame.mac.src = trx_.id();
    rts_frame.mac.dst = p.mac.dst;
    rts_frame.mac.duration = 3 * kSifs + cts_air + data_air + ack_air;
    count_tx(rts_frame);
    const SimTime rts_air = trx_.transmit(rts_frame);
    set_state(State::kWaitCts);
    timeout_ev_ = sim_.schedule(
        rts_air + kSifs + cts_air + 2 * phy.max_propagation() + kTimeoutMargin,
        [this] { cts_timeout(); });
  } else {
    transmit_data_frame();
  }
}

void WifiMac::transmit_data_frame() {
  MANET_ASSERT(current_.has_value());
  if (trx_.transmitting()) {
    // Extremely rare: a response transmission landed on the same instant.
    handle_retry(!cfg_.use_rts);
    return;
  }
  const PhyConfig& phy = trx_.config();
  Packet p = *current_;
  p.mac.retry = (short_retries_ + long_retries_) > 0;
  const SimTime ack_air = phy.airtime(kMacAckBytes);
  p.mac.duration = kSifs + ack_air;
  count_tx(p);
  const SimTime air = trx_.transmit(p);
  set_state(State::kWaitAck);
  timeout_ev_ = sim_.schedule(
      air + kSifs + ack_air + 2 * phy.max_propagation() + kTimeoutMargin,
      [this] { ack_timeout(); });
}

void WifiMac::schedule_response(Packet frame) {
  sim_.schedule(kSifs, [this, frame] {
    if (trx_.transmitting()) return;  // lost the race to our own transmission
    if (trx_.down()) return;          // crashed during the SIFS gap
    count_tx(frame);
    trx_.transmit(frame);
  });
}

// ---------------------------------------------------------------------------
// Exchange outcomes
// ---------------------------------------------------------------------------

void WifiMac::cts_timeout() {
  if (state_ != State::kWaitCts) return;
  handle_retry(/*short_stage=*/true);
}

void WifiMac::ack_timeout() {
  if (state_ != State::kWaitAck) return;
  // Data sent under RTS protection counts against the long retry limit; data
  // sent bare counts against the short one.
  const bool protected_by_rts =
      cfg_.use_rts && current_->size_bytes() >= cfg_.rts_threshold;
  handle_retry(/*short_stage=*/!protected_by_rts);
}

void WifiMac::handle_retry(bool short_stage) {
  MANET_ASSERT(current_.has_value());
  int& counter = short_stage ? short_retries_ : long_retries_;
  const int limit = short_stage ? kShortRetryLimit : kLongRetryLimit;
  ++counter;
  if (counter >= limit) {
    finish_current(false);
    return;
  }
  cw_ = std::min(cw_ * 2 + 1, kCwMax);
  backoff_slots_ = static_cast<std::uint32_t>(rng_.uniform_int(0, cw_));
  set_state(State::kContend);
  medium_check();
}

void WifiMac::finish_current(bool success) {
  MANET_ASSERT(current_.has_value());
  sim_.cancel(difs_ev_);
  sim_.cancel(nav_ev_);
  sim_.cancel(backoff_ev_);
  sim_.cancel(timeout_ev_);
  Packet done = std::move(*current_);
  current_.reset();
  short_retries_ = long_retries_ = 0;
  cw_ = kCwMin;
  // Post-transmission backoff, for fairness between consecutive frames.
  backoff_slots_ = static_cast<std::uint32_t>(rng_.uniform_int(0, kCwMin));
  set_state(State::kIdle);
  if (!success && listener_ != nullptr) {
    // 802.11 link-layer feedback: the routing protocol decides whether to
    // salvage, re-route, or drop (and does the drop accounting).
    listener_->mac_link_failure(done, done.mac.dst);
  }
  start_service();
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void WifiMac::phy_rx(const Packet& f) {
  const NodeId me = trx_.id();
  switch (f.mac.type) {
    case MacFrameType::kRts: {
      if (f.mac.dst != me) {
        update_nav(f.mac.duration);
        return;
      }
      // Respond only when not engaged in our own exchange and the NAV allows.
      if ((state_ == State::kIdle || state_ == State::kContend) && sim_.now() >= nav_until_) {
        const SimTime cts_air = trx_.config().airtime(kMacCtsBytes);
        Packet cts;
        cts.mac.type = MacFrameType::kCts;
        cts.mac.src = me;
        cts.mac.dst = f.mac.src;
        const SimTime remaining = f.mac.duration - kSifs - cts_air;
        cts.mac.duration = std::max(remaining, SimTime::zero());
        schedule_response(cts);
      }
      return;
    }
    case MacFrameType::kCts: {
      if (f.mac.dst == me) {
        if (state_ == State::kWaitCts) {
          sim_.cancel(timeout_ev_);
          set_state(State::kSendData);
          sim_.schedule(kSifs, [this] {
            if (state_ == State::kSendData) transmit_data_frame();
          });
        }
      } else {
        update_nav(f.mac.duration);
      }
      return;
    }
    case MacFrameType::kData: {
      if (f.mac.dst == me) {
        Packet ack;
        ack.mac.type = MacFrameType::kAck;
        ack.mac.src = me;
        ack.mac.dst = f.mac.src;
        ack.mac.duration = SimTime::zero();
        schedule_response(ack);  // ACK even duplicates, else the sender loops
        auto [it, inserted] = rx_last_seq_.try_emplace(f.mac.src, f.mac.seq);
        const bool dup = !inserted && f.mac.retry && it->second == f.mac.seq;
        it->second = f.mac.seq;
        if (!dup && listener_ != nullptr) listener_->mac_deliver(f);
      } else if (f.mac.dst == kBroadcast) {
        if (listener_ != nullptr) listener_->mac_deliver(f);
      } else {
        update_nav(f.mac.duration);
      }
      return;
    }
    case MacFrameType::kAck: {
      if (f.mac.dst == me) {
        if (state_ == State::kWaitAck) {
          sim_.cancel(timeout_ev_);
          finish_current(true);
        }
      } else {
        update_nav(f.mac.duration);
      }
      return;
    }
  }
}

}  // namespace manet
