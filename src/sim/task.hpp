#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "topo/topology.hpp"
#include "util/enum_names.hpp"
#include "util/time.hpp"

namespace speedbal {

class Simulator;
class Task;

using TaskId = int;

/// Scheduling state of a simulated task (Linux terminology: a "task" is any
/// thread or process; the kernel does not distinguish them).
enum class TaskState {
  Runnable,  ///< On a run queue, not currently executing.
  Running,   ///< Currently executing on its core.
  Sleeping,  ///< Blocked; off every run queue.
  Parked,    ///< Dequeued by a scheduler policy (DWRR expired queue), not
             ///< blocked by the application; still wants to run.
  Finished,  ///< Exited.
};

inline constexpr auto kTaskStateNames = enum_names<TaskState>(
    "task state", "runnable", "running", "sleeping", "parked", "finished");
static_assert(kTaskStateNames.ends_at(TaskState::Finished));

inline const char* to_string(TaskState s) { return kTaskStateNames[s]; }

/// What a task does when its assigned work runs out while it is waiting for
/// other threads (barrier semantics; see Section 3 of the paper). The mode
/// determines run-queue membership, which is what the queue-length-based
/// Linux balancer observes.
enum class WaitMode {
  None,   ///< Not waiting: executing assigned work.
  Spin,   ///< Busy-wait: burns full timeslices, stays on the run queue.
  Yield,  ///< Poll + sched_yield: stays on the run queue, cedes the CPU.
};

inline constexpr auto kWaitModeNames =
    enum_names<WaitMode>("wait mode", "none", "spin", "yield");
static_assert(kWaitModeNames.ends_at(WaitMode::Yield));

inline const char* to_string(WaitMode m) { return kWaitModeNames[m]; }

/// Consumer of task lifecycle callbacks; the application layer implements
/// this to drive phases and barriers.
class TaskClient {
 public:
  virtual ~TaskClient() = default;

  /// Called when the task finishes its currently assigned work. The client
  /// must either assign new work, put the task to sleep, set a wait mode, or
  /// finish the task (via the Simulator API).
  virtual void on_work_complete(Simulator& sim, Task& task) = 0;
};

/// Construction-time parameters of a task.
struct TaskSpec {
  std::string name;
  TaskClient* client = nullptr;  ///< May be null for fire-and-forget tasks.
  double weight = 1.0;           ///< CFS load weight (nice level analogue).
  /// Resident set size; determines the cache-refill cost of a migration.
  double mem_footprint_kb = 0.0;
  /// Fraction of execution time that is memory-bound (0 = pure compute).
  /// Scales both the NUMA remote-access penalty and bandwidth contention.
  double mem_intensity = 0.0;
  /// Fraction of one contention domain's memory bandwidth demanded while
  /// running (0 = none). Drives the bandwidth-saturation model.
  double mem_bw_demand = 0.0;
};

/// Struct-of-arrays backing store for the task fields the dispatch loop
/// touches on every event — state transitions, vruntime charging, work and
/// warmup decrement, exec accumulation. Dense parallel vectors indexed by
/// TaskId (ids are handed out sequentially from 0), so a balancer scanning
/// one field across all tasks walks one contiguous array instead of pulling
/// a whole Task object per element. Cold configuration and rarely-touched
/// fields stay inside Task; its accessors hide the split.
class TaskStore {
 public:
  /// Ensure slots [0, n) exist, default-initializing new ones.
  void grow_to(std::size_t n) {
    if (n <= state.size()) return;
    state.resize(n, TaskState::Sleeping);
    wait_mode.resize(n, WaitMode::None);
    core.resize(n, CoreId{-1});
    remaining_work.resize(n, 0.0);
    warmup_remaining.resize(n, 0.0);
    warmup_time.resize(n, 0.0);
    total_exec.resize(n, SimTime{0});
    vruntime.resize(n, SimTime{0});
    last_ran.resize(n, kNever);
  }

  std::size_t size() const { return state.size(); }

  std::vector<TaskState> state;
  std::vector<WaitMode> wait_mode;
  std::vector<CoreId> core;
  std::vector<double> remaining_work;
  std::vector<double> warmup_remaining;
  std::vector<double> warmup_time;
  std::vector<SimTime> total_exec;
  std::vector<SimTime> vruntime;  ///< Queue-relative while enqueued.
  std::vector<SimTime> last_ran;
};

/// A simulated schedulable entity. All mutation goes through the Simulator;
/// other code reads the public accessors. Hot per-event fields live in the
/// TaskStore the task was created against (the Simulator owns one for all
/// its tasks); the accessors below read through to it, so callers see no
/// difference from the old all-in-one layout.
class Task {
 public:
  Task(TaskId id, TaskSpec spec, TaskStore& store)
      : id_(id), spec_(std::move(spec)), store_(&store) {
    store_->grow_to(static_cast<std::size_t>(id) + 1);
  }

  TaskId id() const { return id_; }
  const std::string& name() const { return spec_.name; }
  const TaskSpec& spec() const { return spec_; }

  TaskState state() const { return store_->state[uid()]; }
  WaitMode wait_mode() const { return store_->wait_mode[uid()]; }
  /// Core whose run queue the task is on (or last ran on while sleeping).
  CoreId core() const { return store_->core[uid()]; }
  /// NUMA node where the task's memory was first allocated (first touch).
  int home_numa() const { return home_numa_; }

  /// Affinity bitmask over cores (bit i = allowed on core i).
  std::uint64_t allowed_mask() const { return allowed_; }
  bool allowed_on(CoreId c) const { return (allowed_ >> c) & 1u; }
  /// True once an external balancer pinned this task via sched_setaffinity;
  /// the Linux load balancer will then never move it (Section 5.2).
  bool hard_pinned() const { return hard_pinned_; }

  /// Remaining assigned work, in microseconds at nominal (1.0) speed.
  double remaining_work() const { return store_->remaining_work[uid()]; }
  /// Pending cache-refill overhead from the last migration, in microseconds
  /// at nominal speed; consumed before real work makes progress.
  double warmup_remaining() const { return store_->warmup_remaining[uid()]; }
  /// Cumulative wall time (fractional µs) spent burning warmup — the
  /// migration stall cost actually paid so far, used by request-span
  /// attribution to separate cache-refill time from real execution.
  double warmup_time() const { return store_->warmup_time[uid()]; }

  SimTime total_exec() const { return store_->total_exec[uid()]; }
  /// Accumulated time spent Sleeping (closed intervals only; an in-progress
  /// sleep is charged at wake — use Simulator::total_sleep for a live view).
  SimTime total_sleep() const { return total_sleep_; }
  /// Instant the current sleep began (kNever when not sleeping).
  SimTime sleep_since() const { return sleep_since_; }
  SimTime vruntime() const { return store_->vruntime[uid()]; }
  int migrations() const { return migrations_; }
  /// Last instant the task executed; drives the Linux "cache hot" heuristic.
  SimTime last_ran() const { return store_->last_ran[uid()]; }

  static constexpr double kInfiniteWork = std::numeric_limits<double>::infinity();

 private:
  friend class Simulator;
  friend class CfsQueue;

  std::size_t uid() const { return static_cast<std::size_t>(id_); }

  // Mutable access to the hot store fields, for the befriended scheduler
  // core (the call-site spelling changed from `t.field_` to `t.field_ref()`
  // when the fields moved out; semantics are identical).
  TaskState& state_ref() { return store_->state[uid()]; }
  WaitMode& wait_mode_ref() { return store_->wait_mode[uid()]; }
  CoreId& core_ref() { return store_->core[uid()]; }
  double& remaining_work_ref() { return store_->remaining_work[uid()]; }
  double& warmup_remaining_ref() { return store_->warmup_remaining[uid()]; }
  double& warmup_time_ref() { return store_->warmup_time[uid()]; }
  SimTime& total_exec_ref() { return store_->total_exec[uid()]; }
  SimTime& vruntime_ref() { return store_->vruntime[uid()]; }
  SimTime& last_ran_ref() { return store_->last_ran[uid()]; }

  TaskId id_;
  TaskSpec spec_;
  TaskStore* store_;

  // Cold / rarely-touched state (placement config, sleep bookkeeping).
  int home_numa_ = -1;
  std::uint64_t allowed_ = ~0ULL;
  bool hard_pinned_ = false;
  SimTime total_sleep_ = 0;
  SimTime sleep_since_ = kNever;
  int migrations_ = 0;

  // Bookkeeping for sleep timeouts (sleep-poll barriers).
  std::uint64_t wake_seq_ = 0;
};

}  // namespace speedbal
