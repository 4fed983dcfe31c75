#include "sim/cfs_queue.hpp"

#include <algorithm>
#include <cassert>

namespace speedbal {

bool CfsQueue::before(const Task* a, const Task* b) {
  if (a->vruntime() != b->vruntime()) return a->vruntime() < b->vruntime();
  return a->id() < b->id();
}

void CfsQueue::insert_sorted(Task* t) {
  const auto pos = std::upper_bound(order_.begin(), order_.end(), t, before);
  order_.insert(pos, t);
}

std::size_t CfsQueue::index_of(const Task& t) const {
  // Keys are unique (id tiebreak), so an equal-range search would land on
  // the element directly — but the vruntime may have been modified by the
  // caller between insert and lookup (charge), so scan by identity.
  const auto it = std::find(order_.begin(), order_.end(), &t);
  return static_cast<std::size_t>(it - order_.begin());
}

void CfsQueue::enqueue(Task& t, bool sleeper_bonus) {
  assert(!contains(t));
  // Convert the task's queue-relative vruntime to this queue's clock. A
  // woken sleeper receives the CFS wakeup credit: it is placed half a
  // latency period before min_vruntime so it runs promptly (it was blocked,
  // not hoarding CPU) without being able to starve the queue.
  t.vruntime_ref() = sleeper_bonus ? min_vruntime_ - params_.sched_latency / 2
                              : t.vruntime_ref() + min_vruntime_;
  insert_sorted(&t);
  load_ += t.spec().weight;
  update_min_vruntime();
}

void CfsQueue::dequeue(Task& t) {
  const std::size_t i = index_of(t);
  assert(i < order_.size());
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
  load_ -= t.spec().weight;
  if (order_.empty()) load_ = 0.0;
  // Store vruntime relative to this queue so the next queue can rebase it.
  t.vruntime_ref() -= min_vruntime_;
  update_min_vruntime();
}

Task* CfsQueue::pick_next() const {
  return order_.empty() ? nullptr : order_.front();
}

void CfsQueue::requeue_behind(Task& t) {
  const std::size_t i = index_of(t);
  assert(i < order_.size());
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
  const SimTime rightmost = order_.empty() ? min_vruntime_ : order_.back()->vruntime_ref();
  t.vruntime_ref() = std::max(t.vruntime_ref(), rightmost + 1);
  order_.push_back(&t);  // max vruntime + unique id: always the new rightmost
}

void CfsQueue::charge(Task& t, SimTime dur) {
  assert(dur >= 0);
  const double w = std::max(t.spec().weight, 1e-9);
  t.vruntime_ref() += round_to_int64(static_cast<double>(dur) / w);
  const std::size_t i = index_of(t);
  if (i == order_.size()) return;  // Not queued: nothing to reorder.
  // The key (vruntime, id) only grew, so the task slides right: everything
  // before it still sorts before it, and its new slot is the upper bound
  // over the tail (the order erase + insert_sorted would give).
  const auto it = order_.begin() + static_cast<std::ptrdiff_t>(i);
  std::rotate(it, it + 1, std::upper_bound(it + 1, order_.end(), &t, before));
  update_min_vruntime();
}

SimTime CfsQueue::timeslice() const {
  const auto nr = std::max<std::size_t>(order_.size(), 1);
  return std::max(params_.sched_latency / static_cast<SimTime>(nr),
                  params_.min_granularity);
}

bool CfsQueue::should_preempt(const Task& woken, const Task& running) const {
  return woken.vruntime() + params_.wakeup_granularity < running.vruntime();
}

bool CfsQueue::has_non_waiting() const {
  return std::any_of(order_.begin(), order_.end(), [](const Task* t) {
    return t->wait_mode() == WaitMode::None;
  });
}

bool CfsQueue::contains(const Task& t) const {
  return index_of(t) < order_.size();
}

void CfsQueue::update_min_vruntime() {
  if (order_.empty()) return;  // Keep the clock; new arrivals rebase onto it.
  min_vruntime_ = std::max(min_vruntime_, order_.front()->vruntime_ref());
}

}  // namespace speedbal
