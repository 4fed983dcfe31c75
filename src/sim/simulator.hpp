#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/cache_model.hpp"
#include "sim/cfs_queue.hpp"
#include "sim/core_state.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/task.hpp"
#include "topo/domains.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace speedbal {

/// Simulator-wide tunables.
struct SimParams {
  CfsParams cfs;
  /// Override the topology-derived memory model parameters.
  std::optional<MemoryModelParams> mem;
  /// Staleness window of the load information consulted at task start-up
  /// (the paper's footnote: "idleness information is not updated when
  /// multiple tasks start simultaneously").
  SimTime load_snapshot_period = msec(10);
  /// NUMA first-touch model: a task's memory home node is fixed where it is
  /// running once it has accumulated this much execution. Real applications
  /// allocate their working set a little into the run — after a user-level
  /// balancer's initial pinning, not at the fork-placement instant. Until
  /// the home is fixed, memory behaves as local to wherever the task runs.
  SimTime first_touch_exec = msec(10);
};

/// Discrete-event simulator of a multicore machine running per-core CFS
/// schedulers. Balancing policies (Linux load balancing, speed balancing,
/// DWRR, ULE) plug in from src/balance by scheduling their own events and
/// calling `migrate`. Applications plug in from src/app via TaskClient.
///
/// Execution model: work is expressed in microseconds at nominal speed; a
/// task's effective speed on a core is clock_scale x SMT contention x memory
/// effects (NUMA locality + bandwidth saturation, see MemoryModel). Tasks
/// stop at timeslice expiry or work completion, whichever comes first;
/// partial execution can be flushed at any instant (`sync_accounting`) so
/// balancers always observe exact per-thread CPU time, the way the real
/// speedbalancer reads /proc taskstats.
class Simulator {
 public:
  Simulator(const Topology& topo, SimParams params = {}, std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  const Topology& topo() const { return topo_; }
  const DomainTree& domains() const { return domains_; }
  const MemoryModel& memory() const { return memory_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// Attach an observability recorder: migrations go into its log as they
  /// happen, and the run keeps its segments for export_run_to_recorder (see
  /// Metrics::set_recorder). Null (default) is free apart from one pointer
  /// test per migration.
  void set_recorder(obs::RunRecorder* rec) { metrics_.set_recorder(rec); }
  obs::RunRecorder* recorder() const { return metrics_.recorder(); }
  Rng& rng() { return rng_; }
  SimTime now() const { return events_.now(); }
  int num_cores() const { return topo_.num_cores(); }

  // --- Task lifecycle -----------------------------------------------------

  /// Create a task; the Simulator owns it for the simulation's lifetime.
  Task& create_task(TaskSpec spec);

  /// Start a task using Linux fork placement: the least-loaded allowed core
  /// according to the (possibly stale) load snapshot.
  void start_task(Task& t, std::uint64_t allowed_mask = ~0ULL);

  /// Start a task on a specific core (the round-robin initial pinning the
  /// user-level speed balancer performs, or an explicitly pinned task).
  void start_task_on(Task& t, CoreId core, std::uint64_t allowed_mask = ~0ULL);

  /// Give the task `work_us` microseconds of nominal-speed work and clear
  /// any wait mode. Legal on Runnable, Running, or Sleeping (assign before
  /// wake) tasks. work_us must be > 0.
  void assign_work(Task& t, double work_us);

  /// Enter a busy-wait (Spin) or poll+sched_yield (Yield) wait; the task
  /// remains on its run queue until released by assign_work or sleep.
  void set_wait_mode(Task& t, WaitMode mode);

  /// Block the task indefinitely (removed from its run queue).
  void sleep_task(Task& t);

  /// Block the task and automatically wake it after `dur` (usleep).
  void sleep_task_for(Task& t, SimTime dur);

  /// Wake a sleeping task; chooses a core via Linux wakeup placement
  /// (previous core if idle, else a nearby idle core) and may preempt.
  void wake_task(Task& t);

  /// Remove a Runnable/Running task from its run queue without blocking it
  /// (a scheduler policy's expired queue, e.g. DWRR). The application may
  /// still sleep or finish a parked task.
  void park_task(Task& t);

  /// Return a Parked task to its core's run queue.
  void unpark_task(Task& t);

  /// Terminate the task permanently.
  void finish_task(Task& t);

  /// sched_setaffinity: restrict the task to `mask` and migrate immediately
  /// if its current core is excluded. `hard_pin` marks the task as moved by
  /// a user-level balancer: the Linux load balancer will never touch it.
  /// Returns false — affinity unchanged, mirroring the kernel's EINVAL —
  /// when the mask contains no online core.
  bool set_affinity(Task& t, std::uint64_t mask, bool hard_pin,
                    MigrationCause cause = MigrationCause::Affinity);

  /// Move a task to another core's run queue (balancer migration). The
  /// currently running task is stopped first (sched_setaffinity semantics:
  /// it does not get to finish its quantum). Charges the cache-refill cost.
  void migrate(Task& t, CoreId to, MigrationCause cause);

  // --- Perturbations (DVFS & hotplug) -------------------------------------

  /// DVFS: change one core's relative clock speed mid-run. The running
  /// task's partial execution is charged at the old speed before the new
  /// one takes effect, and its stop timer is re-armed.
  void set_clock_scale(CoreId core, double scale);

  /// CPU hotplug. Offlining drains the core: the running task is stopped
  /// and every queued task migrates to the least-loaded online core in its
  /// affinity mask (MigrationCause::Hotplug); a task with no online allowed
  /// core has its mask widened to all online cores, mirroring the kernel's
  /// select_fallback_rq affinity-breaking. Onlining marks the core eligible
  /// for placement again (nothing moves back automatically — that is the
  /// balancers' job). No-op when the state already matches; throws
  /// std::invalid_argument when offlining would leave no core online.
  void set_core_online(CoreId core, bool online);

  bool core_online(CoreId c) const { return core(c).online(); }
  std::uint64_t online_mask() const { return core_store_.online; }
  int num_online_cores() const { return std::popcount(core_store_.online); }

  // --- Time control -------------------------------------------------------

  EventHandle schedule_at(SimTime t, EventFn fn);
  EventHandle schedule_after(SimTime dt, EventFn fn);
  void cancel(EventHandle h) { events_.cancel(h); }

  /// Execute one event; false when none are pending.
  bool step() { return events_.run_next(); }
  void run_until(SimTime t) { events_.run_until(t); }
  /// Time of the earliest pending event, or kNever when none is pending.
  SimTime next_event_time() { return events_.next_time(); }

  /// Total events executed so far; wall-clock / events gives the
  /// simulator's end-to-end cost per event (see bench/micro_hotpath).
  std::uint64_t events_executed() const { return events_.executed(); }

  /// Run until `until()` returns true or the time cap / event exhaustion is
  /// hit; returns true if the predicate was satisfied.
  bool run_while_pending(const std::function<bool()>& until, SimTime cap);

  // --- Queries & hooks for balancers ---------------------------------------

  CoreState& core(CoreId id) { return cores_.at(static_cast<std::size_t>(id)); }
  const CoreState& core(CoreId id) const {
    return cores_.at(static_cast<std::size_t>(id));
  }

  /// Flush the partial execution of the running task on `core` so that task
  /// exec times, remaining work and every Metrics query are exact as of
  /// now(). Stages the running stretch's segment so far, so a stretch that
  /// spans a sync is recorded as two adjacent segments.
  void sync_accounting(CoreId core);
  void sync_all_accounting();

  /// Total time `t` has spent blocked, including an in-progress sleep
  /// (Task::total_sleep only covers closed intervals).
  SimTime total_sleep(const Task& t) const {
    return t.total_sleep() +
           (t.sleep_since() != kNever ? now() - t.sleep_since() : 0);
  }

  /// All live (non-finished) tasks, and those queued on a given core.
  /// These forms allocate a fresh vector per call; hot callers (balancer
  /// scans, invariant probes) should use the out-buffer or visitor
  /// variants below.
  std::vector<Task*> live_tasks() const;
  std::vector<Task*> tasks_on(CoreId core) const;

  /// Allocation-free snapshot into a caller-owned reuse buffer.
  void live_tasks(std::vector<Task*>& out) const;

  /// Visit every live (non-finished) task without materializing a list.
  template <typename Fn>
  void for_each_live_task(Fn&& fn) const {
    for (const Task& t : tasks_)
      if (t.state() != TaskState::Finished) fn(const_cast<Task*>(&t));
  }

  /// Visit the tasks queued on `core` in vruntime order.
  template <typename Fn>
  void for_each_task_on(CoreId core, Fn&& fn) const {
    this->core(core).queue().for_each(fn);
  }

  /// Unfinished tasks that are not hard-pinned: the only ones a kernel
  /// balancer may move. Zero means every kernel pull would find nothing.
  int num_unpinned_tasks() const { return num_unpinned_; }

  /// Every task ever created (ids are dense from 0), including Finished
  /// ones — the audience for whole-run conservation checks, which must sum
  /// over hogs and spikes that live_tasks() no longer reports.
  int num_tasks() const { return next_task_id_; }
  const Task& task(TaskId id) const {
    return tasks_.at(static_cast<std::size_t>(id));
  }
  Task& task(TaskId id) { return tasks_.at(static_cast<std::size_t>(id)); }

  /// Hook invoked when a core's run queue empties (Linux new-idle
  /// balancing); the hook may migrate a task into the core.
  void set_idle_hook(std::function<void(CoreId)> hook) { idle_hook_ = std::move(hook); }

  /// Total demand currently running against a NUMA node's memory and
  /// system-wide (units of MemoryModelParams capacities); for tests.
  double node_demand(int node) const { return node_demand_.at(static_cast<std::size_t>(node)); }
  double system_demand() const { return system_demand_; }

 private:
  static constexpr double kWorkEps = 1e-6;

  /// A core stop whose speed refresh runs inside the refresh of the start
  /// that follows it on the same core (see refresh_speeds): the stopped
  /// task, and the bus demand the stop left. That is the current demand
  /// except at `node`, the node the start adds to, and system-wide.
  struct StopStage {
    const Task* stopped;
    int node;
    double node_demand;
    double system_demand;
  };

  /// Run the next task on `core`, if any. `stopped`, when set, is the task
  /// core_stop just stopped here without refreshing speeds.
  void dispatch(CoreId core, const Task* stopped = nullptr);
  void start_running(CoreId core, Task& t, const Task* stopped);
  /// Charge the running task's execution since the last flush at the
  /// core's current speed: remaining work, warmup, CPU time, CFS vruntime.
  /// Runs at every speed change; records nothing in Metrics (a stretch's
  /// segment is recorded by sync_accounting, which every stretch end calls).
  void flush_accounting(CoreId core);
  void core_stop(CoreId core);
  /// Stop the running task without requeueing decisions (caller handles).
  void halt_running(CoreId core);
  /// (Re-)arm the core's stop timer for timeslice expiry or work
  /// completion at the current speed, whichever comes first.
  void arm_stop(CoreId core);
  /// The speed formula, the one place it is written: clock scale, then x
  /// SMT contention, then x the memory factor (this order keeps the
  /// floating-point result the same however the factor was obtained).
  double compute_speed(const Task& t, CoreId core) const {
    return speed_on(core, memory_factor(t, core));
  }
  /// `idle`, when set, is a core to count as idle whatever it runs.
  double speed_on(CoreId core, double mem_factor, CoreId idle = -1) const;
  /// MemoryModel::speed_factor of `t` on `core` at the current node and
  /// system demand, or at the demand `stage` left. Depends on `t` and
  /// `core` only through (mem_intensity, home node, the core's node).
  double memory_factor(const Task& t, CoreId core,
                       const StopStage* stage = nullptr) const;
  /// The NUMA node whose bandwidth `t` uses while it runs on its core.
  int demand_node(const Task& t) const {
    return t.home_numa() >= 0 ? t.home_numa() : core_info(t.core()).numa_node;
  }
  void add_running_demand(const Task& t, int sign);
  /// Give the running task on `core` a new speed: charge the elapsed part
  /// at the old speed and re-arm the stop timer. No-op if it is unchanged.
  void retime(CoreId core, double speed);
  /// Re-time the running cores a start or stop of `changed` affects: all
  /// of them when it carries bandwidth demand, else only its SMT sibling.
  /// With `stage`, `changed` has just started on the core `stage` stopped,
  /// and one pass re-times the cores for both: first as of the stop, then
  /// as of the start. Each moved core is flushed once at its old speed and
  /// armed once at its final one; when `started`, the core `changed` runs
  /// on is armed between the cores only the stop moved and the rest, the
  /// order two separate refreshes around its arm would leave.
  void refresh_speeds(const Task& changed, bool started,
                      const StopStage* stage = nullptr);
  CoreId select_core_fork(const Task& t);
  CoreId select_core_wake(const Task& t);
  CoreId least_loaded_online(std::uint64_t mask) const;
  void enqueue_on(Task& t, CoreId core, bool sleeper_bonus);
  void maybe_refresh_load_snapshot();

  /// Unchecked access for the dispatch engine, whose core ids are in range
  /// by construction; the public core(id) keeps its bounds check.
  CoreState& core_at(CoreId c) { return cores_[static_cast<std::size_t>(c)]; }
  const CoreInfo& core_info(CoreId c) const {
    return topo_.cores()[static_cast<std::size_t>(c)];
  }

  Topology topo_;  // Non-const: DVFS perturbations mutate clock scales.
  const DomainTree domains_;
  SimParams params_;
  MemoryModel memory_;
  EventQueue events_;
  Metrics metrics_;
  Rng rng_;

  // Struct-of-arrays stores for hot task/core state. Declared before the
  // object containers whose elements point into them.
  TaskStore task_store_;
  CoreStore core_store_;

  /// Tasks by value; a deque keeps addresses stable as tasks are appended
  /// (Task& handles live for the simulation's lifetime).
  std::deque<Task> tasks_;
  std::vector<CoreState> cores_;

  /// Per core, the cores sharing its cache, its socket and its NUMA node
  /// (itself included): wake placement's nearest-first ranks as masks.
  struct NearMasks {
    std::uint64_t cache = 0;
    std::uint64_t socket = 0;
    std::uint64_t numa = 0;
  };
  std::vector<NearMasks> near_;

  std::vector<double> node_demand_;
  double system_demand_ = 0.0;

  std::function<void(CoreId)> idle_hook_;

  // Stale load view used by fork placement.
  std::vector<int> load_snapshot_;
  SimTime load_snapshot_time_ = kNever;

  int next_task_id_ = 0;
  int num_unpinned_ = 0;
};

}  // namespace speedbal
