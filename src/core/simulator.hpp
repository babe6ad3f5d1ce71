// The simulation executive: owns the clock and the event queue.
//
// One Simulator instance per simulation run. Components hold a reference and
// use schedule()/cancel()/now(). Events run one at a time in (time,
// insertion-seq) order on the calling thread, so a run is a pure function of
// (scenario, seed). Multi-core use happens one level up: SweepRunner runs
// independent replications concurrently, one Simulator each.
#pragma once

#include <cstdint>

#include "core/event_queue.hpp"
#include "core/time.hpp"

namespace manet {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

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

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
};

}  // namespace manet
