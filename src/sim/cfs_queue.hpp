#pragma once

#include <cstddef>
#include <vector>

#include "sim/task.hpp"
#include "util/time.hpp"

namespace speedbal {

/// Tunables of the per-core fair scheduler, mirroring the CFS sysctls of the
/// Linux 2.6.28 kernel the paper ran on.
struct CfsParams {
  /// Target period in which every runnable task runs once.
  SimTime sched_latency = msec(20);
  /// Lower bound on any timeslice (prevents thrashing at high task counts).
  SimTime min_granularity = msec(4);
  /// A waking task preempts the current one only if its vruntime is behind
  /// by more than this.
  SimTime wakeup_granularity = msec(1);
};

/// Per-core CFS run queue: tasks ordered by virtual runtime; the leftmost
/// (minimum vruntime) task runs next. Task vruntimes are stored relative to
/// the queue's min_vruntime while enqueued so migrations between queues do
/// not import another core's virtual clock.
///
/// Storage is a flat vector kept sorted ascending by (vruntime, id) — the
/// same total order the old rb-tree gave, without per-node allocation or
/// pointer chasing. Queues hold a handful of tasks (tens at worst under
/// oversubscription), where a binary search plus memmove beats tree
/// rebalancing on every enqueue/charge.
class CfsQueue {
 public:
  explicit CfsQueue(CfsParams params = {}) : params_(params) {}

  const CfsParams& params() const { return params_; }

  /// Add a runnable task. If `sleeper_bonus` is set the task is placed
  /// slightly behind min_vruntime (the CFS wakeup credit), so freshly woken
  /// tasks are scheduled promptly.
  void enqueue(Task& t, bool sleeper_bonus);

  /// Remove a task (migration, sleep, or exit).
  void dequeue(Task& t);

  /// Task that would run next (min vruntime), or nullptr when empty.
  Task* pick_next() const;

  /// Reinsert a task at the right edge of the queue (sched_yield semantics:
  /// every other runnable task will run before it does).
  void requeue_behind(Task& t);

  /// Charge `dur` >= 0 of execution to the task's virtual clock (weighted).
  /// A queued task slides right to its new (vruntime, id) position; a task
  /// that is not queued only has its vruntime advanced.
  void charge(Task& t, SimTime dur);

  /// Timeslice for the current load: max(latency / nr_running, min_gran).
  SimTime timeslice() const;

  /// True if the woken task should preempt `running` under CFS wakeup
  /// preemption rules.
  bool should_preempt(const Task& woken, const Task& running) const;

  std::size_t nr_running() const { return order_.size(); }
  bool empty() const { return order_.empty(); }
  double load() const { return load_; }
  SimTime min_vruntime() const { return min_vruntime_; }

  /// Whether any enqueued task is doing real work (not barrier-waiting).
  bool has_non_waiting() const;

  /// Snapshot of enqueued tasks in vruntime order (for balancer scans).
  /// Allocates; hot callers should use the visitor form.
  std::vector<Task*> tasks() const { return order_; }

  /// Visit enqueued tasks in vruntime order without copying. The callback
  /// must not mutate the queue.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Task* t : order_) fn(t);
  }

  bool contains(const Task& t) const;

 private:
  static bool before(const Task* a, const Task* b);

  /// Binary-search insert preserving (vruntime, id) order.
  void insert_sorted(Task* t);
  /// Index of `t` in order_, or order_.size() when absent (linear scan —
  /// queues are small and the scan is over a dense pointer array).
  std::size_t index_of(const Task& t) const;

  void update_min_vruntime();

  CfsParams params_;
  std::vector<Task*> order_;  ///< sorted ascending by (vruntime, id)
  double load_ = 0.0;
  SimTime min_vruntime_ = 0;
};

}  // namespace speedbal
