#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace manet {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> observed;
  sim.schedule(milliseconds(10), [&] { observed.push_back(sim.now()); });
  sim.schedule(milliseconds(20), [&] { observed.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], milliseconds(10));
  EXPECT_EQ(observed[1], milliseconds(20));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(milliseconds(1), recurse);
  };
  sim.schedule(milliseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule(milliseconds(5), [&] { ++fired; });
  sim.schedule(milliseconds(15), [&] { ++fired; });
  const auto ran = sim.run_until(milliseconds(10));
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(10));  // clock advanced to horizon
  sim.run_until(milliseconds(20));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtHorizonRuns) {
  Simulator sim;
  int fired = 0;
  sim.schedule(milliseconds(10), [&] { ++fired; });
  sim.run_until(milliseconds(10));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule(milliseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(milliseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(milliseconds(1), [&] { ++fired; });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, PendingReflectsLifecycle) {
  Simulator sim;
  const EventId id = sim.schedule(milliseconds(1), [] {});
  EXPECT_TRUE(sim.pending(id));
  sim.run();
  EXPECT_FALSE(sim.pending(id));
}

TEST(Simulator, QueueSizeAndPeakTrackPendingEvents) {
  // Cancelled events leave the pending count at once; the high-water mark
  // (reported per replication as peak_queue_depth) never drops.
  Simulator sim;
  const EventId first = sim.schedule(milliseconds(1), [] {});
  sim.schedule(milliseconds(2), [] {});
  sim.schedule(milliseconds(3), [] {});
  EXPECT_EQ(sim.queue_size(), 3u);
  sim.cancel(first);
  EXPECT_EQ(sim.queue_size(), 2u);
  sim.run();
  EXPECT_EQ(sim.queue_size(), 0u);
  EXPECT_EQ(sim.peak_queue_size(), 3u);
}

TEST(Simulator, EventsExecutedCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(milliseconds(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime seen = SimTime::zero();
  sim.schedule_at(milliseconds(42), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, milliseconds(42));
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(5), [&] {
    order.push_back(1);
    sim.schedule(SimTime::zero(), [&] { order.push_back(2); });
  });
  sim.schedule(milliseconds(5), [&] { order.push_back(3); });
  sim.run();
  // The zero-delay event lands after the already-queued same-time event.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulator, ReservedOrderRunsAheadOfLaterSameInstantEvents) {
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t first = sim.reserve_order();
  sim.schedule(milliseconds(2), [&] {
    order.push_back(2);
    // A number reserved at t=0 still sorts ahead of this tie at t=2ms.
    const std::uint64_t late = sim.reserve_order();
    sim.schedule_at(milliseconds(2), [&] { order.push_back(4); });
    sim.schedule_at(milliseconds(2), late, [&] { order.push_back(3); });
  });
  sim.schedule_at(milliseconds(2), first, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimulatorDeathTest, ScheduleWithUnreservedOrderViolatesContract) {
  Simulator sim;
  const std::uint64_t seq = sim.reserve_order();
  EXPECT_DEATH(sim.schedule_at(milliseconds(1), seq + 1, [] {}), "never reserved");
}

TEST(SimulatorDeathTest, ScheduleReservedInThePastViolatesContract) {
  Simulator sim;
  const std::uint64_t seq = sim.reserve_order();
  sim.schedule(milliseconds(5), [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(milliseconds(1), seq, [] {}), "in the past");
}

}  // namespace
}  // namespace manet
