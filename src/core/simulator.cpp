#include "core/simulator.hpp"

#include "core/assert.hpp"

namespace manet {

EventId Simulator::schedule(SimTime delay, EventQueue::Callback cb) {
  MANET_EXPECTS_MSG(delay >= SimTime::zero(), "t=%lldns: negative delay %lldns — the past is immutable",
                    static_cast<long long>(now_.ns()), static_cast<long long>(delay.ns()));
  return queue_.schedule(now_ + delay, std::move(cb));
}

EventId Simulator::schedule_at(SimTime at, EventQueue::Callback cb) {
  MANET_EXPECTS_MSG(at >= now_, "schedule_at(%lldns) is in the past (now=%lldns)",
                    static_cast<long long>(at.ns()), static_cast<long long>(now_.ns()));
  return queue_.schedule(at, std::move(cb));
}

EventId Simulator::schedule_at(SimTime at, std::uint64_t seq, EventQueue::Callback cb) {
  MANET_EXPECTS_MSG(at >= now_, "schedule_at(%lldns) is in the past (now=%lldns)",
                    static_cast<long long>(at.ns()), static_cast<long long>(now_.ns()));
  MANET_EXPECTS_MSG(queue_.reserved(seq), "schedule_at: order %llu was never reserved",
                    static_cast<unsigned long long>(seq));
  return queue_.schedule(at, seq, std::move(cb));
}

std::uint64_t Simulator::run_until(SimTime until) {
  stopped_ = false;
  std::uint64_t ran = 0;
  while (!stopped_) {
    auto ev = queue_.pop_due(until);
    if (!ev) break;
    // Executive invariant: simulated time never moves backwards.
    MANET_ASSERT_MSG(ev->time >= now_, "event-queue time moved backwards: popped t=%lldns at now=%lldns",
                     static_cast<long long>(ev->time.ns()), static_cast<long long>(now_.ns()));
    now_ = ev->time;
    order_ = ev->seq;
    in_event_ = true;
    ev->cb();
    in_event_ = false;
    ++ran;
    ++events_executed_;
  }
  // Advance the clock to the horizon even if the queue drained early, so a
  // subsequent run_until() continues from a consistent point. Unless stopped,
  // the loop ended because nothing is due by `until`.
  if (!stopped_ && until > now_ && until != SimTime::max()) now_ = until;
  return ran;
}

std::uint64_t Simulator::run() { return run_until(SimTime::max()); }

}  // namespace manet
