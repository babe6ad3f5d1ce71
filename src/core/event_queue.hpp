// The event queue at the heart of the discrete-event kernel.
//
// A 4-ary min-heap ordered by (time, sequence number). Every event carries a
// number from one counter, and ties in time are broken by it, so
// simulations are deterministic regardless of heap internals. schedule()
// normally takes the next number, but a caller may reserve_seq() a number
// now and schedule with it later, or never: the event then runs exactly
// where an event scheduled at reservation time would have run. The channel
// reserves two numbers per arrival, and an arrival's step becomes an event
// under its number only if something observes it (transceiver.hpp).
//
// Heap nodes are 24-byte PODs; callbacks live in a slot array addressed by
// EventId, so sifting never moves a closure. EventIds are generation-stamped
// slot handles: schedule/cancel/pending are pure array indexing — no
// hashing, no per-event allocation (the MAC layer cancels timers
// constantly, so this path is the kernel's inner loop). Cancellation is lazy
// in the heap: a cancelled event's callback is destroyed eagerly, its heap
// node discarded when it surfaces. cancel() is O(1); pop() is O(log4 n)
// amortized.
//
// pop() leaves the popped root in place, marked dead. The next schedule()
// overwrites it and sifts down from the top; the next pop or pop_due
// removes it first. An event scheduled while the previous one runs and due
// just after it, such as a chain re-arming its next step, thus costs a
// one-level sift instead of a full pop plus a push.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/callback.hpp"
#include "core/time.hpp"

namespace manet {

/// Handle to a scheduled event; used to cancel it. Encodes (slot,
/// generation): slots are recycled, but the generation advances on every
/// reuse, so an id value is never issued twice.
using EventId = std::uint64_t;

/// Sentinel for "no event".
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = EventCallback;

  /// Schedule `cb` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(SimTime at, Callback cb) { return insert(at, next_seq_++, std::move(cb)); }

  /// Take the next sequence number without scheduling anything. An event
  /// later scheduled with it orders among same-instant events as if it had
  /// been scheduled now.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// True iff `seq` has been handed out by reserve_seq() or schedule().
  [[nodiscard]] bool reserved(std::uint64_t seq) const { return seq < next_seq_; }

  /// The number the next schedule() or reserve_seq() will take: one past
  /// every number handed out so far.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Schedule `cb` at `at` with a sequence number from reserve_seq(). Each
  /// reserved number is used at most once.
  EventId schedule(SimTime at, std::uint64_t seq, Callback cb);

  /// Cancel a previously scheduled event. Cancelling an already-executed,
  /// already-cancelled, or invalid id is a harmless no-op.
  void cancel(EventId id);

  /// True iff `id` is scheduled and not yet executed or cancelled.
  [[nodiscard]] bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].live && slots_[slot].gen == gen_of(id);
  }

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// High-water mark of live events since construction. Profiling hook:
  /// sweep artifacts report it per replication.
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

  /// Remove and return the earliest live event. Precondition: !empty().
  struct Popped {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    Callback cb;
  };
  Popped pop();

  /// Remove and return the earliest live event if it is due at or before
  /// `until`; nothing if the queue is empty or its next event is later.
  std::optional<Popped> pop_due(SimTime until);

 private:
  /// Heap node: POD ordering key + the slot/generation of its callback.
  /// Cheap to move, so sift operations stay in one or two cache lines.
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // insertion order; tie-break for determinism
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Callback storage, reused across events. `gen` advances each time the
  /// slot is allocated, so stale EventIds can never match a later tenant.
  struct Slot {
    std::uint32_t gen = 0;
    bool live = false;
    Callback cb;
  };

  static constexpr std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }
  static constexpr std::uint32_t gen_of(EventId id) { return static_cast<std::uint32_t>(id); }
  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// True iff this heap node still refers to a live event.
  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].live && slots_[e.slot].gen == e.gen;
  }

  EventId insert(SimTime at, std::uint64_t seq, Callback&& cb);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_heap_top();
  void drop_dead_root();
  void discard_cancelled_top();
  /// Pop the live root. Precondition: discard_cancelled_top() left one.
  Popped take_top();
  void retire(std::uint32_t slot);

  std::vector<Entry> heap_;   // 4-ary min-heap by (time, seq)
  bool root_dead_ = false;    // heap_[0] was popped; the next insert overwrites it
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // retired slot indices, LIFO
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace manet
