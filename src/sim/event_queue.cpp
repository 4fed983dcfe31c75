#include "sim/event_queue.hpp"

#include <algorithm>

namespace speedbal {

void EventQueue::run_until(SimTime t) {
  for (Tier tier = top_tier(); tier != Tier::None && tier_time(tier) <= t;
       tier = top_tier())
    fire(tier);
  if (now_ < t) now_ = t;
}

void EventQueue::run_all() {
  while (run_next()) {
  }
}

void EventQueue::rescan_timers() {
  timer_min_ = kNoTimer;
  for (const HeapEntry& e : timers_)
    if (e.time != kTimerOff &&
        (timer_min_ == kNoTimer || before(e, timers_[timer_min_])))
      timer_min_ = e.slot;
  timer_min_stale_ = false;
}

void EventQueue::sift_up(std::size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

/// Index of the smallest child of `i`, or `n` if `i` is a leaf.
std::size_t EventQueue::min_child(std::size_t i, std::size_t n) const {
  const std::size_t first = kArity * i + 1;
  if (first >= n) return n;
  const std::size_t last = std::min(first + kArity, n);
  std::size_t best = first;
  for (std::size_t c = first + 1; c < last; ++c)
    if (before(heap_[c], heap_[best])) best = c;
  return best;
}

void EventQueue::sift_down(std::size_t i) {
  HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t child = min_child(i, n);
    if (child >= n || !before(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void EventQueue::pop_root() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Floyd's hole scheme: walk the hole from the root down the min-child
  // path to a leaf, then drop the tail entry in and bubble it up. The tail
  // of a min-heap almost always belongs near the bottom, so the bubble-up
  // usually exits immediately.
  std::size_t hole = 0;
  std::size_t child;
  while ((child = min_child(hole, n)) < n) {
    place(hole, heap_[child]);
    hole = child;
  }
  place(hole, last);
  sift_up(hole);
}

void EventQueue::heap_erase(std::size_t i) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // Erased the tail entry.
  heap_[i] = last;
  slot_pos_[last.slot] = static_cast<std::uint32_t>(i);
  // The moved entry may need to travel either way relative to position i.
  if (i > 0 && before(heap_[i], heap_[(i - 1) / kArity]))
    sift_up(i);
  else
    sift_down(i);
}

}  // namespace speedbal
