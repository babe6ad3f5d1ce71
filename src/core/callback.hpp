// EventCallback: the kernel's callable type.
//
// std::function heap-allocates captures beyond its (implementation-defined,
// often 16-byte) small buffer and drags in copyability machinery the event
// queue never uses. Almost every event the simulator schedules is a
// move-only closure of a word or two ([this], [this, key], [this, record]),
// so the inner loop was paying one malloc/free per event. EventCallback is a
// move-only, small-buffer-optimized replacement: closures up to kInlineBytes
// live inside the object next to a single ops-table pointer (40 bytes
// total); larger ones (rare: setup lambdas with fat captures) fall back to
// the heap.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace manet {

class EventCallback {
 public:
  /// Inline capture budget. 32 bytes covers the hot closures ([this],
  /// [this, key], the channel's [this, record]); bigger ones, such as a
  /// jittered rebroadcast that captures a whole Packet, take the heap path.
  static constexpr std::size_t kInlineBytes = 32;

  EventCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventCallback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor) drop-in for std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(static_cast<void*>(buf_), &heap, sizeof heap);
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& o) noexcept { move_from(o); }
  EventCallback& operator=(EventCallback&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }
  [[nodiscard]] bool operator==(std::nullptr_t) const { return ops_ == nullptr; }

  /// Drop the held callable (captures are destroyed immediately).
  void reset() {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void*, void*);  // move-construct into dst, destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* from, void* to) {
        Fn* src = static_cast<Fn*>(from);
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) {
        Fn* f = nullptr;
        std::memcpy(&f, p, sizeof f);
        (*f)();
      },
      [](void* from, void* to) { std::memcpy(to, from, sizeof(Fn*)); },
      [](void* p) {
        Fn* f = nullptr;
        std::memcpy(&f, p, sizeof f);
        delete f;
      },
  };

  void move_from(EventCallback& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) ops_->relocate(o.buf_, buf_);
    o.ops_ = nullptr;
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace manet
