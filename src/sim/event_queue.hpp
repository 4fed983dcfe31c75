#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace speedbal {

/// Move-only callable with small-buffer storage, sized so every hot-path
/// event the Simulator schedules (run-stop, preemption, balancer ticks —
/// lambdas capturing a pointer plus a couple of scalars) fits inline.
/// Larger callables fall back to a single heap allocation; std::function
/// additionally type-erases copyability and (on common ABIs) spills any
/// capture beyond 16 trivially-copyable bytes, which made the event loop
/// allocate on nearly every scheduled stop. Trivially-copyable callables
/// (the overwhelmingly common case) are flagged so moves are a branch plus
/// a memcpy instead of an indirect call.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function.
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `dst` from `src`, destroying `src`. Unused (and
    /// skipped) when `trivial`.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void*);
    /// Trivially copyable and destructible: relocation is memcpy, no
    /// destructor call needed.
    bool trivial;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* src, void* dst) {
        Fn* f = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>};

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* src, void* dst) {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
      [](void* p) { delete *static_cast<Fn**>(p); },
      // The owning pointer relocates by copy but must not be double-freed,
      // so heap callables always take the indirect path.
      false};

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivial)
        std::memcpy(buf_, other.buf_, kInlineSize);
      else
        ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Handle to a scheduled event; valid until the event fires or is cancelled.
/// Holds the slot index so cancellation is O(log n) without a lookup; the
/// (time, seq) pair doubles as the liveness check (a recycled slot carries a
/// different seq).
struct EventHandle {
  SimTime time = kNever;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  bool valid() const { return time >= 0; }
};

/// Deterministic discrete-event queue ordered by (time, seq), so events at
/// equal times fire in insertion order and simulations stay bit-for-bit
/// reproducible for a given seed.
///
/// Scheduled events live in an indexed 4-ary min-heap whose callables sit
/// in a freelist-recycled slot table, so steady-state scheduling allocates
/// nothing. The heap stays shallow in practice (a few dozen entries), so a
/// far-future insert costs about as little as a near one.
///
/// Beside the heap sit a few fixed, re-armable timers (the Simulator's
/// per-core stop events, retimed on every speed change). Their keys live in
/// a dense array with a lazily rescanned argmin instead of the heap, so a
/// re-arm costs a few stores. Arming draws its seq from the same counter as
/// schedule(), so the pop path — the smaller of the heap top and the
/// earliest armed timer — keeps one (time, seq) total order over both.
class EventQueue {
 public:
  /// Schedule `fn` at absolute time `t` (must be >= now()).
  EventHandle schedule(SimTime t, EventFn fn) {
    if (t < now_) throw std::invalid_argument("EventQueue: schedule in the past");
    const std::uint32_t slot = alloc_slot();
    const std::uint64_t seq = next_seq_++;
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.seq = seq;
    heap_push({t, seq, slot});
    return EventHandle{t, seq, slot};
  }

  /// Cancel a pending event; no-op if it already fired or was cancelled.
  void cancel(EventHandle h) {
    if (!h.valid() || h.slot >= slots_.size()) return;
    Slot& s = slots_[h.slot];
    if (s.seq != h.seq) return;  // Already fired, cancelled, or recycled.
    heap_erase(slot_pos_[h.slot]);
    s.fn.reset();
    s.seq = 0;
    free_slots_.push_back(h.slot);
  }

  /// Register a fixed, re-armable timer and return its id (dense from 0).
  /// A timer is a standing event that lives outside the heap: `arm` retimes
  /// it with a couple of stores instead of a heap sift, which is what a
  /// per-core stop event retimed on every speed change needs. Register
  /// timers up front (typically at construction): `fn` is invoked in place,
  /// so a timer handler must not register further timers.
  std::uint32_t add_timer(EventFn fn) {
    if (timers_.size() >= kMaxTimers)
      throw std::length_error("EventQueue: too many timers");
    const auto id = static_cast<std::uint32_t>(timers_.size());
    timers_.push_back({kTimerOff, 0, id});
    timer_fns_.push_back(std::move(fn));
    return id;
  }

  /// Arm timer `id` to fire at `t` (must be >= now()), replacing any
  /// pending firing. The key draws a fresh seq from the same counter as
  /// `schedule`, so timers and scheduled events share one (time, seq)
  /// total order: arming is exactly cancel + schedule of the same callable.
  void arm(std::uint32_t id, SimTime t) {
    if (t < now_) throw std::invalid_argument("EventQueue: arm in the past");
    const HeapEntry key{t, next_seq_++, id};
    HeapEntry& slot = timers_[id];
    if (slot.time == kTimerOff) ++timers_armed_;
    if (!timer_min_stale_) {
      // Keep the cached argmin exact when cheap: a new earliest key takes
      // over; re-arming the current minimum later defers to a rescan.
      if (timer_min_ == kNoTimer || before(key, timers_[timer_min_]))
        timer_min_ = id;
      else if (timer_min_ == id)
        timer_min_stale_ = true;
    }
    slot = key;
  }

  /// Disarm timer `id`; no-op if it is not armed (already fired, or never
  /// armed).
  void disarm(std::uint32_t id) {
    HeapEntry& slot = timers_[id];
    if (slot.time == kTimerOff) return;
    slot.time = kTimerOff;
    --timers_armed_;
    if (timer_min_ == id) timer_min_stale_ = true;
  }

  /// Pop and execute the earliest event; returns false when empty.
  bool run_next() {
    const Tier tier = top_tier();
    if (tier == Tier::None) return false;
    fire(tier);
    return true;
  }

  /// True when no events are pending (armed timers included).
  bool empty() const { return heap_.empty() && timers_armed_ == 0; }
  std::size_t size() const { return heap_.size() + timers_armed_; }

  /// Current simulation time (time of the last event popped).
  SimTime now() const { return now_; }

  /// Time of the earliest pending event, or kNever if empty. Non-const:
  /// finding it may rescan the timer argmin.
  SimTime next_time() { return tier_time(top_tier()); }

  /// Run events until simulation time would exceed `t`; leaves now() == t.
  void run_until(SimTime t);

  /// Run until the queue is empty.
  void run_all();

  /// Total events executed so far, timer firings included (monotonic; for
  /// throughput accounting).
  std::uint64_t executed() const { return executed_; }

 private:
  static constexpr std::size_t kArity = 4;

  /// Timer-table bound: the argmin rescan is a linear pass, kept short (the
  /// Simulator registers one timer per core, at most 64).
  static constexpr std::size_t kMaxTimers = 64;
  /// Time of a disarmed timer (sorts after every armed key).
  static constexpr SimTime kTimerOff = std::numeric_limits<SimTime>::max();
  static constexpr std::uint32_t kNoTimer = 0xFFFFFFFFu;

  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;  ///< Seq of the occupying event; 0 = free.
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  std::uint32_t alloc_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slot_pos_.push_back(0);
    return slot;
  }

  void heap_push(const HeapEntry& e) {
    heap_.push_back(e);
    slot_pos_[e.slot] = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);
  }

  enum class Tier { None, Heap, Timer };

  /// Which tier holds the globally earliest pending event: the heap top or
  /// the earliest armed timer.
  Tier top_tier() {
    if (timers_armed_ != 0) {
      if (timer_min_stale_) rescan_timers();
      if (heap_.empty() || before(timers_[timer_min_], heap_[0]))
        return Tier::Timer;
    }
    return heap_.empty() ? Tier::None : Tier::Heap;
  }

  /// Time of the earliest event in `tier` (kNever for Tier::None).
  SimTime tier_time(Tier tier) const {
    switch (tier) {
      case Tier::Heap: return heap_[0].time;
      case Tier::Timer: return timers_[timer_min_].time;
      case Tier::None: break;
    }
    return kNever;
  }

  /// Pop and execute the earliest event, which `tier` (top_tier()'s answer)
  /// holds.
  void fire(Tier tier) {
    ++executed_;
    if (tier == Tier::Timer) {
      // Disarm before invoking, so the handler may re-arm the timer (at the
      // current timestamp included).
      const std::uint32_t id = timer_min_;
      now_ = timers_[id].time;
      timers_[id].time = kTimerOff;
      --timers_armed_;
      timer_min_stale_ = true;
      timer_fns_[id]();
      return;
    }
    const HeapEntry top = heap_[0];
    now_ = top.time;
    Slot& s = slots_[top.slot];
    // Move the callable out and release the slot before invoking, so the
    // handler can schedule or cancel events (including at the same
    // timestamp) without touching a live slot.
    EventFn fn = std::move(s.fn);
    s.seq = 0;
    pop_root();
    free_slots_.push_back(top.slot);
    fn();
  }

  /// Recompute the cached argmin over the armed timers.
  void rescan_timers();

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  std::size_t min_child(std::size_t i, std::size_t n) const;
  /// Remove the minimum entry (Floyd's hole-push-down; cheaper than a
  /// generic erase at position 0).
  void pop_root();
  void place(std::size_t i, HeapEntry e) {
    heap_[i] = e;
    slot_pos_[e.slot] = static_cast<std::uint32_t>(i);
  }
  /// Remove the heap entry at position `i` (the slot is released by the
  /// caller, which still needs its payload).
  void heap_erase(std::size_t i);

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  /// Heap position of each slot's entry, parallel to slots_; kept out of
  /// Slot so sifting touches a dense 4-byte array instead of 64-byte slots.
  std::vector<std::uint32_t> slot_pos_;
  std::vector<std::uint32_t> free_slots_;

  /// Re-armable timers: one (time, seq) key per timer, kTimerOff when
  /// disarmed (the `slot` field holds the timer id), and the callables
  /// alongside. timer_min_ caches the earliest armed key's index
  /// (kNoTimer when none is armed); arm/disarm keep it exact or flag it
  /// stale, and a stale cache is rescanned on the next pop or peek.
  std::vector<HeapEntry> timers_;
  std::vector<EventFn> timer_fns_;
  std::size_t timers_armed_ = 0;
  std::uint32_t timer_min_ = kNoTimer;
  bool timer_min_stale_ = false;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;  ///< 0 marks a free slot.
  std::uint64_t executed_ = 0;
};

}  // namespace speedbal
