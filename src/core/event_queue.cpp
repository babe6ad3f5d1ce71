#include "core/event_queue.hpp"

#include "core/assert.hpp"

namespace manet {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

EventId EventQueue::schedule(SimTime at, std::uint64_t seq, Callback cb) {
  MANET_EXPECTS(reserved(seq));
  return insert(at, seq, std::move(cb));
}

EventId EventQueue::insert(SimTime at, std::uint64_t seq, Callback&& cb) {
  MANET_EXPECTS(cb != nullptr);

  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    if (slots_.size() == slots_.capacity()) {
      // Growing the slot array move-relocates every stored callback; double
      // aggressively so that cost stays rare even under 100k+ live events.
      slots_.reserve(slots_.empty() ? 64 : slots_.size() * 2);
      heap_.reserve(slots_.capacity());
    }
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // generations start at 1, so make_id(0, gen) != kInvalidEventId
  s.live = true;
  s.cb = std::move(cb);

  const Entry e{at, seq, slot, s.gen};
  if (root_dead_) {
    root_dead_ = false;
    heap_.front() = e;
    sift_down(0);
  } else {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  ++live_;
  if (live_ > peak_size_) peak_size_ = live_;
  return make_id(slot, s.gen);
}

void EventQueue::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  s.cb.reset();  // release captures now, not when the heap node surfaces
  free_.push_back(slot);
  --live_;
}

void EventQueue::cancel(EventId id) {
  if (!pending(id)) return;
  retire(slot_of(id));
  // The heap node is discarded lazily when it reaches the top.
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_heap_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_dead_root() {
  if (!root_dead_) return;
  root_dead_ = false;
  pop_heap_top();
}

void EventQueue::discard_cancelled_top() {
  drop_dead_root();
  while (!heap_.empty() && !entry_live(heap_.front())) pop_heap_top();
}

SimTime EventQueue::next_time() {
  MANET_EXPECTS(!empty());
  discard_cancelled_top();
  MANET_ASSERT(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  MANET_EXPECTS(!empty());
  discard_cancelled_top();
  MANET_ASSERT(!heap_.empty());
  return take_top();
}

std::optional<EventQueue::Popped> EventQueue::pop_due(SimTime until) {
  if (live_ == 0) return std::nullopt;
  discard_cancelled_top();
  MANET_ASSERT(!heap_.empty());
  if (heap_.front().time > until) return std::nullopt;
  return take_top();
}

EventQueue::Popped EventQueue::take_top() {
  const Entry e = heap_.front();
  root_dead_ = true;  // removed by the next insert or discard_cancelled_top()

  Slot& s = slots_[e.slot];
  Popped out{e.time, e.seq, make_id(e.slot, e.gen), std::move(s.cb)};
  s.live = false;
  s.cb.reset();
  free_.push_back(e.slot);
  --live_;
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  root_dead_ = false;
  free_.clear();
  // Keep the slots (and their generations) so ids issued before clear() can
  // never be confused with later tenants; every slot goes back on the free
  // list.
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    slots_[i].live = false;
    slots_[i].cb.reset();
    free_.push_back(i);
  }
  live_ = 0;
  // A cleared queue starts a fresh profiling epoch: without this, the second
  // replication in one process reports max(previous runs) instead of its own
  // high-water mark.
  peak_size_ = 0;
}

}  // namespace manet
