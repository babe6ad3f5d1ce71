#include "core/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "core/rng.hpp"

namespace manet {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(milliseconds(3), [&] { order.push_back(3); });
  q.schedule(milliseconds(1), [&] { order.push_back(1); });
  q.schedule(milliseconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(milliseconds(1), [&] { ++fired; });
  q.schedule(milliseconds(2), [&] { ++fired; });
  EXPECT_TRUE(q.pending(id));
  q.cancel(id);
  EXPECT_FALSE(q.pending(id));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelExecutedEventIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(milliseconds(1), [] {});
  q.pop();
  q.cancel(id);  // must not corrupt anything
  EXPECT_TRUE(q.empty());
  q.schedule(milliseconds(2), [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  q.cancel(kInvalidEventId);
  q.cancel(123456);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(milliseconds(1), [] {});
  q.schedule(milliseconds(2), [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.schedule(milliseconds(1), [] {});
  q.schedule(milliseconds(5), [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), milliseconds(5));
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(milliseconds(i), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PeakSizeTracksHighWaterMark) {
  EventQueue q;
  for (int i = 0; i < 4; ++i) q.schedule(milliseconds(i), [] {});
  q.pop();
  q.pop();
  q.schedule(milliseconds(9), [] {});
  EXPECT_EQ(q.peak_size(), 4u);  // high-water mark, not current size
  EXPECT_EQ(q.size(), 3u);
}

// Regression: clear() used to drop the events but leave peak_size() at the
// old high-water mark, so a reused queue reported its previous life's peak.
TEST(EventQueue, ClearResetsPeakSize) {
  EventQueue q;
  for (int i = 0; i < 8; ++i) q.schedule(milliseconds(i), [] {});
  EXPECT_EQ(q.peak_size(), 8u);
  q.clear();
  EXPECT_EQ(q.peak_size(), 0u);
  q.schedule(milliseconds(1), [] {});
  q.schedule(milliseconds(2), [] {});
  q.pop();
  EXPECT_EQ(q.peak_size(), 2u);  // new life, new high-water mark
}

TEST(EventQueue, IdsAreNeverReused) {
  EventQueue q;
  const EventId a = q.schedule(milliseconds(1), [] {});
  q.pop();
  const EventId b = q.schedule(milliseconds(1), [] {});
  EXPECT_NE(a, b);
}

// The queue recycles slots with a bumped generation; a stale id must never
// alias the slot's next tenant.
TEST(EventQueue, StaleIdCannotCancelSlotsNextTenant) {
  EventQueue q;
  const EventId stale = q.schedule(milliseconds(1), [] {});
  q.pop();  // slot freed, id retired
  int fired = 0;
  const EventId fresh = q.schedule(milliseconds(2), [&] { ++fired; });
  EXPECT_NE(stale, fresh);  // same slot, different generation
  q.cancel(stale);          // aims at the old tenant: must be a no-op
  EXPECT_TRUE(q.pending(fresh));
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, IdsStayUniqueAcrossHeavySlotReuse) {
  // One slot recycled thousands of times must keep minting distinct ids.
  EventQueue q;
  std::vector<EventId> seen;
  for (int i = 0; i < 5000; ++i) {
    const EventId id = q.schedule(milliseconds(1), [] {});
    seen.push_back(id);
    q.pop();
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(EventQueue, PendingAcrossClear) {
  EventQueue q;
  const EventId before = q.schedule(milliseconds(1), [] {});
  q.clear();
  EXPECT_FALSE(q.pending(before));
  // Ids issued before clear() must not be confused with later tenants of
  // the same slots.
  int fired = 0;
  const EventId after = q.schedule(milliseconds(2), [&] { ++fired; });
  EXPECT_NE(before, after);
  EXPECT_FALSE(q.pending(before));
  EXPECT_TRUE(q.pending(after));
  q.cancel(before);  // stale: no effect on the new event
  EXPECT_TRUE(q.pending(after));
  q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CallbackCapturesReleasedOnCancel) {
  // Cancelling destroys the callback immediately; a shared_ptr captured by
  // the closure must drop its refcount without waiting for pop()/clear().
  EventQueue q;
  auto token = std::make_shared<int>(42);
  const EventId id = q.schedule(milliseconds(1), [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  q.cancel(id);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, LargeCallbacksSurviveHeapFallback) {
  // Captures bigger than the inline buffer take the heap path; semantics
  // must not change.
  EventQueue q;
  std::array<std::uint64_t, 16> big{};  // 128 bytes, over the 32-byte SBO
  big[0] = 7;
  big[15] = 9;
  std::uint64_t sum = 0;
  q.schedule(milliseconds(1), [big, &sum] { sum = big[0] + big[15]; });
  q.pop().cb();
  EXPECT_EQ(sum, 16u);
}

// Fuzz the queue against a trivially-correct reference model: the reference
// keeps every event in a flat vector and pops by linear scan over
// (time, seq). Some events are scheduled with a sequence number reserved
// earlier, and pops are followed by every operation that must first deal
// with the dead root the pop leaves behind: schedule, cancel, next_time,
// another pop and clear. Any drift in pop order, pending() answers, or
// fired-callback counts shows up here.
TEST(EventQueue, FuzzMatchesReferenceModel) {
  struct RefEvent {
    SimTime time;
    std::uint64_t seq;
    int payload;
    bool live = true;
  };
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    RngStream rng(seed);
    EventQueue q;
    std::vector<RefEvent> ref;             // by schedule order
    std::vector<EventId> ids;              // parallel to ref
    std::vector<std::uint64_t> reserved;   // reserved, not yet used
    std::uint64_t next_seq = 0;            // the queue's counter, mirrored
    std::vector<int> fired;
    int next_payload = 0;

    auto ref_pop = [&]() -> RefEvent* {
      RefEvent* best = nullptr;
      for (RefEvent& e : ref) {
        if (!e.live) continue;
        if (best == nullptr || e.time < best->time ||
            (e.time == best->time && e.seq < best->seq)) {
          best = &e;
        }
      }
      return best;
    };
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    auto pop_one = [&] {
      auto ev = q.pop();
      RefEvent* expect = ref_pop();
      ASSERT_NE(expect, nullptr);
      ASSERT_EQ(ev.time, expect->time);
      expect->live = false;
      const auto before = fired.size();
      ev.cb();
      ASSERT_EQ(fired.size(), before + 1);
      ASSERT_EQ(fired.back(), expect->payload);
    };

    for (int step = 0; step < 3000; ++step) {
      const double dice = rng.uniform();
      if (dice < 0.45) {  // schedule, half the time with a reserved number
        const SimTime t = milliseconds(rng.uniform_int(0, 500));
        const int payload = next_payload++;
        auto cb = [payload, &fired] { fired.push_back(payload); };
        std::uint64_t seq = 0;
        if (!reserved.empty() && rng.uniform() < 0.5) {
          const std::size_t r = pick(reserved.size());
          seq = reserved[r];
          reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(r));
          ids.push_back(q.schedule(t, seq, cb));
        } else {
          seq = next_seq++;
          ids.push_back(q.schedule(t, cb));
        }
        ref.push_back({t, seq, payload, true});
      } else if (dice < 0.55) {  // reserve a number for later
        const std::uint64_t seq = q.reserve_seq();
        ASSERT_EQ(seq, next_seq++);
        reserved.push_back(seq);
      } else if (dice < 0.75 && !ids.empty()) {  // cancel a random id (maybe stale)
        const std::size_t idx = pick(ids.size());
        ASSERT_EQ(q.pending(ids[idx]), ref[idx].live);
        q.cancel(ids[idx]);
        ref[idx].live = false;
      } else if (dice < 0.80 && !q.empty()) {  // peek
        RefEvent* expect = ref_pop();
        ASSERT_NE(expect, nullptr);
        ASSERT_EQ(q.next_time(), expect->time);
      } else if (dice < 0.805) {  // clear
        q.clear();
        for (RefEvent& e : ref) e.live = false;
      } else if (!q.empty()) {
        pop_one();
      }
      ASSERT_EQ(q.size(), static_cast<std::size_t>(std::count_if(
                              ref.begin(), ref.end(), [](const RefEvent& e) { return e.live; })));
    }
    // Drain: remaining events must fire in exactly the reference order.
    while (!q.empty()) pop_one();
    ASSERT_EQ(ref_pop(), nullptr);  // model drained too
  }
}

TEST(EventQueueDeathTest, ScheduleWithUnreservedNumberViolatesContract) {
  EventQueue q;
  const std::uint64_t seq = q.reserve_seq();
  EXPECT_DEATH(q.schedule(milliseconds(1), seq + 1, [] {}), "reserved");
}

// Property: a random mix of schedules and cancels always pops in
// non-decreasing time order and fires exactly the non-cancelled callbacks.
class EventQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueProperty, RandomMixMaintainsOrderAndCount) {
  RngStream rng(GetParam());
  EventQueue q;
  std::vector<EventId> live;
  int expected = 0;
  int fired = 0;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng.uniform() < 0.7) {
      live.push_back(q.schedule(milliseconds(rng.uniform_int(0, 1000)), [&] { ++fired; }));
      ++expected;
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      if (q.pending(live[idx])) --expected;
      q.cancel(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  SimTime last = SimTime::zero();
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.time, last);
    last = ev.time;
    ev.cb();
  }
  EXPECT_EQ(fired, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace manet
