// The simulation executive: owns the clock and the event queue.
//
// One Simulator instance per simulation run. Components hold a reference and
// use schedule()/cancel()/now(). Events run one at a time in (time,
// insertion-seq) order on the calling thread, so a run is a pure function of
// (scenario, seed). Multi-core use happens one level up: SweepRunner runs
// independent replications concurrently, one Simulator each.
//
// point() names where the run stands in that order: the running event's
// (time, order), or, outside any event, the instant now after every order
// number reserved so far. The transceivers compare against it to apply the
// arrivals they keep without events exactly where those events would run.
#pragma once

#include <compare>
#include <cstdint>

#include "core/event_queue.hpp"
#include "core/time.hpp"

namespace manet {

/// A place in the run's total order of events: (time, order number).
struct SimPoint {
  SimTime time;
  std::uint64_t order = 0;
  friend auto operator<=>(const SimPoint&, const SimPoint&) = default;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// The running event's (time, order); outside any event, now after every
  /// order number reserved so far.
  [[nodiscard]] SimPoint point() const {
    return {now_, in_event_ ? order_ : queue_.next_seq()};
  }

  /// Schedule `cb` to run `delay` from now. Negative delays are a contract
  /// violation — the past is immutable.
  EventId schedule(SimTime delay, EventQueue::Callback cb);

  /// Schedule `cb` at absolute time `at` (must not be in the past).
  EventId schedule_at(SimTime at, EventQueue::Callback cb);

  /// Reserve the order of an event to be scheduled later: scheduled with
  /// schedule_at(at, seq, cb), it runs among same-instant events exactly
  /// where an event scheduled now would have run.
  [[nodiscard]] std::uint64_t reserve_order() { return queue_.reserve_seq(); }

  /// Schedule `cb` at `at` (not in the past) with a number from
  /// reserve_order(); each number is used at most once.
  EventId schedule_at(SimTime at, std::uint64_t seq, EventQueue::Callback cb);

  /// Cancel a scheduled event (no-op if already run/cancelled).
  void cancel(EventId id) { queue_.cancel(id); }

  /// True iff the event is still pending.
  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  /// Run until the queue drains or simulated time would exceed `until`.
  /// Events exactly at `until` are executed. Returns the number of events run.
  std::uint64_t run_until(SimTime until);

  /// Run until the queue drains completely.
  std::uint64_t run();

  /// Request that the run loop stop after the current event returns.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for micro-benchmarks and tests).
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }

  /// High-water mark of pending events over the run (profiling).
  [[nodiscard]] std::size_t peak_queue_size() const { return queue_.peak_size(); }

  /// The next packet uid of this run: 1, 2, ... (Packet::uid()).
  [[nodiscard]] std::uint64_t mint_uid() { return ++last_uid_; }

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t order_ = 0;  ///< the running event's order number
  bool in_event_ = false;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t last_uid_ = 0;
};

}  // namespace manet
