#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/log.hpp"

namespace speedbal {

Simulator::Simulator(const Topology& topo, SimParams params, std::uint64_t seed)
    : topo_(topo),
      domains_(DomainTree::build(topo_)),
      params_(params),
      memory_(topo_, params.mem ? *params.mem : MemoryModel::for_topology(topo_)),
      metrics_(topo_.num_cores()),
      rng_(seed) {
  if (topo_.num_cores() > 64)
    throw std::invalid_argument("Simulator supports at most 64 cores");
  core_store_.init(static_cast<std::size_t>(topo_.num_cores()));
  cores_.reserve(static_cast<std::size_t>(topo_.num_cores()));
  for (CoreId c = 0; c < topo_.num_cores(); ++c) {
    cores_.emplace_back(c, params_.cfs, core_store_);
    // One stop timer per core; its timer id is the CoreId.
    events_.add_timer([this, c] { core_stop(c); });
  }
  const std::vector<CoreInfo>& info = topo_.cores();
  near_.resize(info.size());
  for (std::size_t a = 0; a < info.size(); ++a) {
    for (std::size_t b = 0; b < info.size(); ++b) {
      const std::uint64_t bit = 1ULL << b;
      if (info[a].cache_group == info[b].cache_group) near_[a].cache |= bit;
      if (info[a].socket == info[b].socket) near_[a].socket |= bit;
      if (info[a].numa_node == info[b].numa_node) near_[a].numa |= bit;
    }
  }
  node_demand_.assign(static_cast<std::size_t>(topo_.num_numa_nodes()), 0.0);
  load_snapshot_.assign(static_cast<std::size_t>(topo_.num_cores()), 0);
}

// --- Task lifecycle ---------------------------------------------------------

Task& Simulator::create_task(TaskSpec spec) {
  tasks_.emplace_back(next_task_id_++, std::move(spec), task_store_);
  tasks_.back().sleep_since_ = now();  // Born sleeping.
  ++num_unpinned_;
  return tasks_.back();
}

void Simulator::start_task(Task& t, std::uint64_t allowed_mask) {
  const std::uint64_t usable =
      topo_.num_cores() >= 64 ? ~0ULL : ((1ULL << topo_.num_cores()) - 1);
  t.allowed_ = allowed_mask & usable;
  if (t.allowed_ == 0) throw std::invalid_argument("start_task: empty affinity");
  enqueue_on(t, select_core_fork(t), /*sleeper_bonus=*/false);
}

void Simulator::start_task_on(Task& t, CoreId core, std::uint64_t allowed_mask) {
  const std::uint64_t usable =
      topo_.num_cores() >= 64 ? ~0ULL : ((1ULL << topo_.num_cores()) - 1);
  t.allowed_ = allowed_mask & usable;
  if (!t.allowed_on(core))
    throw std::invalid_argument("start_task_on: core outside affinity");
  if (!core_online(core))
    throw std::invalid_argument("start_task_on: core offline");
  enqueue_on(t, core, /*sleeper_bonus=*/false);
}

void Simulator::assign_work(Task& t, double work_us) {
  if (!(work_us > 0.0))
    throw std::invalid_argument("assign_work: work must be positive");
  // Flush first: a running waiter's spin since the last flush is not
  // progress on the new work.
  const bool running = t.state_ref() == TaskState::Running;
  if (running) flush_accounting(t.core_ref());
  t.remaining_work_ref() += work_us;
  t.wait_mode_ref() = WaitMode::None;
  if (running) arm_stop(t.core_ref());
}

void Simulator::set_wait_mode(Task& t, WaitMode mode) {
  if (t.state_ref() == TaskState::Finished)
    throw std::logic_error("set_wait_mode on finished task");
  t.wait_mode_ref() = mode;
  if (mode != WaitMode::None) t.remaining_work_ref() = 0.0;
  if (t.state_ref() == TaskState::Running) {
    flush_accounting(t.core_ref());
    arm_stop(t.core_ref());
  }
}

void Simulator::sleep_task(Task& t) {
  ++t.wake_seq_;
  switch (t.state_ref()) {
    case TaskState::Sleeping:
      return;
    case TaskState::Parked:
      t.state_ref() = TaskState::Sleeping;
      t.wait_mode_ref() = WaitMode::None;
      t.sleep_since_ = now();
      return;
    case TaskState::Finished:
      throw std::logic_error("sleep_task on finished task");
    case TaskState::Running: {
      const CoreId c = t.core_ref();
      halt_running(c);
      core(c).queue().dequeue(t);
      t.state_ref() = TaskState::Sleeping;
      t.wait_mode_ref() = WaitMode::None;
      t.sleep_since_ = now();
      dispatch(c);
      return;
    }
    case TaskState::Runnable:
      core(t.core_ref()).queue().dequeue(t);
      t.state_ref() = TaskState::Sleeping;
      t.wait_mode_ref() = WaitMode::None;
      t.sleep_since_ = now();
      return;
  }
}

void Simulator::sleep_task_for(Task& t, SimTime dur) {
  sleep_task(t);
  const std::uint64_t seq = t.wake_seq_;
  Task* tp = &t;
  schedule_after(std::max<SimTime>(dur, 1), [this, tp, seq] {
    if (tp->state_ref() == TaskState::Sleeping && tp->wake_seq_ == seq) wake_task(*tp);
  });
}

void Simulator::wake_task(Task& t) {
  if (t.state_ref() != TaskState::Sleeping) return;  // Benign lost race.
  ++t.wake_seq_;
  if ((t.allowed_ & online_mask()) == 0)
    t.allowed_ = online_mask();  // select_fallback_rq: every allowed core offline.
  const CoreId prev = t.core_ref();
  const CoreId c = select_core_wake(t);
  if (c != prev && prev >= 0) {
    t.warmup_remaining_ref() += memory_.migration_cost_us(t, prev, c);
    metrics_.record_migration({now(), t.id(), prev, c, MigrationCause::WakePlacement});
  }
  enqueue_on(t, c, /*sleeper_bonus=*/true);
}

void Simulator::finish_task(Task& t) {
  ++t.wake_seq_;
  if (t.state_ref() != TaskState::Finished && !t.hard_pinned_) --num_unpinned_;
  switch (t.state_ref()) {
    case TaskState::Finished:
      return;
    case TaskState::Running: {
      const CoreId c = t.core_ref();
      halt_running(c);
      core(c).queue().dequeue(t);
      t.state_ref() = TaskState::Finished;
      dispatch(c);
      return;
    }
    case TaskState::Runnable:
      core(t.core_ref()).queue().dequeue(t);
      t.state_ref() = TaskState::Finished;
      return;
    case TaskState::Sleeping:
    case TaskState::Parked:
      t.state_ref() = TaskState::Finished;
      return;
  }
}

void Simulator::park_task(Task& t) {
  switch (t.state_ref()) {
    case TaskState::Parked:
      return;
    case TaskState::Sleeping:
    case TaskState::Finished:
      throw std::logic_error("park_task on blocked/finished task");
    case TaskState::Running: {
      const CoreId c = t.core_ref();
      halt_running(c);
      core(c).queue().dequeue(t);
      t.state_ref() = TaskState::Parked;
      dispatch(c);
      return;
    }
    case TaskState::Runnable:
      core(t.core_ref()).queue().dequeue(t);
      t.state_ref() = TaskState::Parked;
      return;
  }
}

void Simulator::unpark_task(Task& t) {
  if (t.state_ref() != TaskState::Parked) return;
  if (!core(t.core_ref()).online()) {
    // The core went away while the task sat on an expired/parked list.
    // migrate() retargets a parked task, and counts and logs the move like
    // the hotplug drain of a runnable one.
    if ((t.allowed_ & online_mask()) == 0) t.allowed_ = online_mask();
    migrate(t, least_loaded_online(t.allowed_), MigrationCause::Hotplug);
  }
  enqueue_on(t, t.core_ref(), /*sleeper_bonus=*/false);
}

bool Simulator::set_affinity(Task& t, std::uint64_t mask, bool hard_pin,
                             MigrationCause cause) {
  const std::uint64_t usable =
      topo_.num_cores() >= 64 ? ~0ULL : ((1ULL << topo_.num_cores()) - 1);
  mask &= usable;
  if (mask == 0) throw std::invalid_argument("set_affinity: empty mask");
  // The kernel rejects a mask with no online CPU (EINVAL) and leaves the
  // old affinity in place; callers must cope, like the real balancer does.
  if ((mask & online_mask()) == 0) return false;
  t.allowed_ = mask;
  if (hard_pin && !t.hard_pinned_) {
    t.hard_pinned_ = true;
    if (t.state_ref() != TaskState::Finished) --num_unpinned_;
  }
  // A task never placed is on no core, so there is nothing to move: its
  // first wake places it inside the new mask; start_task replaces the mask.
  if (t.state_ref() == TaskState::Finished || t.core_ref() < 0) return true;
  if (t.allowed_on(t.core_ref()) &&
      (core(t.core_ref()).online() || t.state_ref() == TaskState::Sleeping ||
       t.state_ref() == TaskState::Parked))
    return true;  // Sleepers on a dead core are redirected at wake/unpark.
  // Current core excluded (or offline): the kernel moves the task
  // immediately to the least-loaded allowed online core. migrate() handles
  // sleepers by retargeting them (effective at wake-up) while still logging
  // the move, so the migration record stream matches the decision log.
  migrate(t, least_loaded_online(t.allowed_), cause);
  return true;
}

void Simulator::migrate(Task& t, CoreId to, MigrationCause cause) {
  if (t.state_ref() == TaskState::Finished)
    throw std::logic_error("migrate on finished task");
  if (!t.allowed_on(to))
    throw std::invalid_argument("migrate: destination outside affinity");
  if (!core(to).online())
    throw std::invalid_argument("migrate: destination core offline");
  const CoreId from = t.core_ref();
  if (to == from) return;

  if (t.state_ref() == TaskState::Sleeping || t.state_ref() == TaskState::Parked) {
    // Only retarget; the cache cost is charged when it actually runs there.
    // Still counted and logged: the per-task counter must match the
    // migration log (WakePlacement is the only recorded-but-uncounted cause).
    t.core_ref() = to;
    ++t.migrations_;
    metrics_.record_migration({now(), t.id(), from, to, cause});
    return;
  }

  const bool was_running = t.state_ref() == TaskState::Running;
  if (was_running) halt_running(from);
  core(from).queue().dequeue(t);

  t.warmup_remaining_ref() += memory_.migration_cost_us(t, from, to);
  ++t.migrations_;
  metrics_.record_migration({now(), t.id(), from, to, cause});

  t.core_ref() = to;
  t.state_ref() = TaskState::Runnable;
  core(to).queue().enqueue(t, /*sleeper_bonus=*/false);

  if (core(to).running_ref() == nullptr) dispatch(to);
  if (was_running) dispatch(from);
}

// --- Perturbations (DVFS & hotplug) -----------------------------------------

void Simulator::set_clock_scale(CoreId c, double scale) {
  topo_.set_clock_scale(c, scale);
  // Clock scale enters the speed model for this core only; SMT contention
  // and memory effects are unchanged, so only this core needs a refresh.
  if (const Task* t = core(c).running()) retime(c, compute_speed(*t, c));
}

void Simulator::set_core_online(CoreId c, bool online) {
  auto& cs = core(c);
  if (cs.online() == online) return;
  const std::uint64_t bit = 1ULL << c;
  if (online) {
    core_store_.online |= bit;
    cs.idle_since_ref() = now();
    return;
  }
  if (num_online_cores() <= 1)
    throw std::invalid_argument("set_core_online: cannot offline the last core");
  core_store_.online &= ~bit;
  // Drain: stop the running task (it rejoins the queue) and push everything
  // to online cores. Like the kernel's CPU-down path, a task whose mask
  // holds no online core gets the mask broken open (select_fallback_rq).
  halt_running(c);
  while (true) {
    Task* t = cs.queue().pick_next();
    if (t == nullptr) break;
    if ((t->allowed_ & online_mask()) == 0) t->allowed_ = online_mask();
    migrate(*t, least_loaded_online(t->allowed_), MigrationCause::Hotplug);
  }
  cs.idle_since_ref() = now();
}

// --- Time control -------------------------------------------------------

EventHandle Simulator::schedule_at(SimTime t, EventFn fn) {
  return events_.schedule(t, std::move(fn));
}

EventHandle Simulator::schedule_after(SimTime dt, EventFn fn) {
  return events_.schedule(now() + dt, std::move(fn));
}

bool Simulator::run_while_pending(const std::function<bool()>& until,
                                  SimTime cap) {
  while (!until()) {
    if (events_.empty()) return false;
    if (events_.next_time() > cap) return false;
    step();
  }
  return true;
}

// --- Queries ----------------------------------------------------------------

void Simulator::sync_accounting(CoreId c) {
  flush_accounting(c);
  // Stage the run segment since the dispatch or the last sync, and start
  // the next one here.
  auto& cs = core(c);
  Task* t = cs.running_ref();
  if (t == nullptr) return;
  const SimTime dur = now() - cs.seg_start_ref();
  if (dur > 0) metrics_.record_exec(t->id(), c, cs.seg_start_ref(), dur);
  cs.seg_start_ref() = now();
}

void Simulator::sync_all_accounting() {
  for (CoreId c = 0; c < num_cores(); ++c) sync_accounting(c);
}

std::vector<Task*> Simulator::live_tasks() const {
  std::vector<Task*> out;
  live_tasks(out);
  return out;
}

std::vector<Task*> Simulator::tasks_on(CoreId c) const {
  return core(c).queue().tasks();
}

void Simulator::live_tasks(std::vector<Task*>& out) const {
  out.clear();
  for (const Task& t : tasks_)
    if (t.state() != TaskState::Finished) out.push_back(const_cast<Task*>(&t));
}

// --- Dispatch engine ----------------------------------------------------

void Simulator::dispatch(CoreId c, const Task* stopped) {
  auto& cs = core_at(c);
  // An offline core executes nothing — in particular its idle hook must not
  // fire, or new-idle balancing would pull work into a dead core.
  if (!cs.online()) return;
  if (cs.running_ref() != nullptr || cs.in_dispatch_ref()) return;
  cs.in_dispatch_ref() = 1;
  Task* pick = cs.queue().pick_next();
  assert(stopped == nullptr || pick != nullptr);  // The stopped task is queued.
  if (pick == nullptr) {
    // New-idle balancing: give the attached balancer a chance to pull work
    // into this queue before we commit to idling.
    if (idle_hook_) idle_hook_(c);
    pick = cs.queue().pick_next();
  }
  if (pick != nullptr) {
    start_running(c, *pick, stopped);
  } else {
    cs.idle_since_ref() = now();
  }
  cs.in_dispatch_ref() = 0;
}

void Simulator::start_running(CoreId c, Task& t, const Task* stopped) {
  auto& cs = core_at(c);
  assert(cs.running_ref() == nullptr);
  // A task can legitimately arrive here with zero work: migrating a running
  // task flushes its accounting first, and the flush may consume the last
  // of its work. arm_stop() then fires core_stop immediately, which
  // runs the normal completion path.
  cs.running_ref() = &t;
  t.state_ref() = TaskState::Running;
  // First touch: the memory home is fixed only once the task has actually
  // executed for a while (see SimParams::first_touch_exec), i.e. after any
  // initial balancer pinning. Updating only at dispatch keeps the
  // node-demand accounting consistent within each dispatch.
  if (t.home_numa_ < 0 && t.total_exec_ref() >= params_.first_touch_exec)
    t.home_numa_ = topo_.core(c).numa_node;
  cs.run_start_ref() = now();
  cs.seg_start_ref() = now();
  cs.idle_since_ref() = kNever;
  const int node = demand_node(t);
  const StopStage stage{stopped, node,
                        node_demand_[static_cast<std::size_t>(node)],
                        system_demand_};
  add_running_demand(t, +1);
  cs.current_speed_ref() = compute_speed(t, c);

  SimTime slice;
  if (t.wait_mode_ref() == WaitMode::Yield) {
    // A polling waiter burns only a sched_yield round trip when it shares
    // the core with real work; when every runnable task here is waiting we
    // coarsen the slice (occupancy is equivalent, events are fewer).
    slice = cs.queue().has_non_waiting() ? cs.queue().params().yield_check
                                         : cs.queue().params().yield_idle_slice;
  } else {
    slice = cs.queue().timeslice();
  }
  cs.slice_end_ref() = now() + slice;
  refresh_speeds(t, /*started=*/true, stopped != nullptr ? &stage : nullptr);
}

void Simulator::flush_accounting(CoreId c) {
  auto& cs = core_at(c);
  Task* t = cs.running_ref();
  if (t == nullptr) return;
  const SimTime dur = now() - cs.run_start_ref();
  if (dur <= 0) return;
  double done = static_cast<double>(dur) * cs.current_speed_ref();
  if (t->warmup_remaining_ref() > 0.0) {
    const double burn = std::min(t->warmup_remaining_ref(), done);
    t->warmup_remaining_ref() -= burn;
    done -= burn;
    // Wall time the burn cost at this core's current speed (guarded: a
    // zero-speed core makes no progress, so no time is attributable).
    if (burn > 0.0) t->warmup_time_ref() += burn / cs.current_speed_ref();
  }
  if (t->wait_mode_ref() == WaitMode::None)
    t->remaining_work_ref() = std::max(0.0, t->remaining_work_ref() - done);
  t->total_exec_ref() += dur;
  t->last_ran_ref() = now();
  cs.busy_time_ref() += dur;
  cs.queue().charge(*t, dur);
  cs.run_start_ref() = now();
}

void Simulator::halt_running(CoreId c) {
  auto& cs = core_at(c);
  Task* t = cs.running_ref();
  if (t == nullptr) return;
  sync_accounting(c);  // The stretch ends: its segment is recorded.
  events_.disarm(static_cast<std::uint32_t>(c));
  cs.running_ref() = nullptr;
  t->state_ref() = TaskState::Runnable;
  add_running_demand(*t, -1);
  refresh_speeds(*t, /*started=*/false);
}

void Simulator::arm_stop(CoreId c) {
  auto& cs = core_at(c);
  Task* t = cs.running_ref();
  assert(t != nullptr);
  SimTime stop = cs.slice_end_ref();
  if (t->wait_mode_ref() == WaitMode::None) {
    const double work_left = t->warmup_remaining_ref() + t->remaining_work_ref();
    const double speed = std::max(cs.current_speed_ref(), 1e-12);
    // Zero work completes right away (see start_running); otherwise at
    // least 1 us so progress-free loops are impossible.
    const SimTime dur =
        work_left <= kWorkEps
            ? 0
            : std::max<SimTime>(ceil_to_int64(work_left / speed), 1);
    stop = std::min(stop, now() + dur);
  }
  stop = std::max(stop, now());
  // Re-arming the core's stop timer replaces its pending firing; the fresh
  // seq gives it the position a cancel + schedule would.
  events_.arm(static_cast<std::uint32_t>(c), stop);
}

void Simulator::core_stop(CoreId c) {
  auto& cs = core_at(c);
  Task* t = cs.running_ref();
  assert(t != nullptr);
  sync_accounting(c);  // The stretch ends: its segment is recorded.
  cs.running_ref() = nullptr;
  t->state_ref() = TaskState::Runnable;
  add_running_demand(*t, -1);

  const bool done = t->wait_mode_ref() == WaitMode::None &&
                    t->remaining_work_ref() <= kWorkEps &&
                    t->warmup_remaining_ref() <= kWorkEps;
  if (!done) {
    // No client code runs before dispatch starts a task here (this one or
    // the next in line), and nothing on the way reads another core, so
    // this stop's speed refresh runs inside that start's.
    if (t->wait_mode_ref() == WaitMode::Yield) cs.queue().requeue_behind(*t);
    dispatch(c, t);
    return;
  }
  refresh_speeds(*t, /*started=*/false);
  t->remaining_work_ref() = 0.0;
  t->warmup_remaining_ref() = 0.0;
  if (t->spec().client != nullptr) {
    t->spec().client->on_work_complete(*this, *t);
    if (t->state_ref() == TaskState::Runnable && t->wait_mode_ref() == WaitMode::None &&
        t->remaining_work_ref() <= kWorkEps)
      throw std::logic_error("TaskClient for '" + t->name() +
                             "' left the task runnable with no work");
  } else {
    finish_task(*t);
  }
  dispatch(c);
}

// --- Speed model --------------------------------------------------------

double Simulator::memory_factor(const Task& t, CoreId c,
                                const StopStage* stage) const {
  const int node = t.home_numa() >= 0 ? t.home_numa() : core_info(c).numa_node;
  double node_demand = node_demand_[static_cast<std::size_t>(node)];
  double system_demand = system_demand_;
  if (stage != nullptr) {
    if (node == stage->node) node_demand = stage->node_demand;
    system_demand = stage->system_demand;
  }
  return memory_.speed_factor(t, c, node_demand, system_demand);
}

double Simulator::speed_on(CoreId c, double mem_factor, CoreId idle) const {
  const CoreInfo& info = core_info(c);
  double s = info.clock_scale;
  if (info.smt_sibling >= 0 && info.smt_sibling != idle &&
      core_store_.running[static_cast<std::size_t>(info.smt_sibling)] != nullptr)
    s *= memory_.params().smt_contention_factor;
  return s * mem_factor;
}

void Simulator::add_running_demand(const Task& t, int sign) {
  const double d = t.spec().mem_bw_demand;
  if (d <= 0.0) return;
  auto& nd = node_demand_[static_cast<std::size_t>(demand_node(t))];
  nd = std::max(0.0, nd + sign * d);
  system_demand_ = std::max(0.0, system_demand_ + sign * d);
}

namespace {

/// Speeds closer than this re-time nothing.
bool same_speed(double a, double b) { return std::abs(a - b) < 1e-12; }

}  // namespace

void Simulator::retime(CoreId c, double speed) {
  auto& cs = core_at(c);
  if (same_speed(speed, cs.current_speed_ref())) return;
  flush_accounting(c);  // Charge the elapsed part at the old speed.
  cs.current_speed_ref() = speed;
  arm_stop(c);
}

void Simulator::refresh_speeds(const Task& changed, bool started,
                               const StopStage* stage) {
  const CoreId c = changed.core();
  const CoreId sib = core_info(c).smt_sibling;
  // A start or stop with bandwidth demand re-times every running core; one
  // without changes only the SMT sibling's contention.
  const bool all_then =
      stage != nullptr && stage->stopped->spec().mem_bw_demand > 0.0;
  const bool all_now = changed.spec().mem_bw_demand > 0.0;
  const bool all = all_then || all_now;
  // Node and system demand are fixed within each stage, so consecutive
  // cores with the same key share one memory factor per stage (all of
  // them, for one program on a UMA machine).
  struct Memo {
    double mi = 0.0;
    int home = -1;
    int node = -1;  // No core has node -1: the first running core misses.
    double factor = 1.0;
  };
  Memo memo_then;
  Memo memo_now;
  const auto factor = [this](Memo& m, const Task& rt, CoreId k,
                             const StopStage* at) {
    const double mi = rt.spec().mem_intensity;
    const int home = rt.home_numa();
    const int node = core_info(k).numa_node;
    if (node != m.node || home != m.home || mi != m.mi)
      m = {mi, home, node, memory_factor(rt, k, at)};
    return m.factor;
  };
  // The stop saw core c idle, and re-timed neither c nor, in the stop's own
  // stage, the task now started there. A core's speed runs through both
  // stages as two separate refreshes would set it; it is flushed once at
  // the old speed and armed once at the new. Cores the start moved are
  // armed after c, the others before it, each group in core order: the
  // (time, seq) order two refreshes around c's arm leave.
  std::uint64_t arm_after = 0;
  const CoreId lo = all ? 0 : std::max<CoreId>(sib, 0);
  const CoreId hi = all ? num_cores() : sib + 1;
  for (CoreId k = lo; k < hi; ++k) {
    const Task* rt = core_store_.running[static_cast<std::size_t>(k)];
    if (rt == nullptr) continue;
    auto& ks = core_at(k);
    double speed = ks.current_speed_ref();
    bool moved_then = false;
    if (stage != nullptr && k != c && (all_then || k == sib)) {
      const double s = speed_on(k, factor(memo_then, *rt, k, stage), c);
      moved_then = !same_speed(s, speed);
      if (moved_then) speed = s;
    }
    bool moved_now = false;
    if (all_now || k == sib) {
      const double s = speed_on(k, factor(memo_now, *rt, k, nullptr));
      moved_now = !same_speed(s, speed);
      if (moved_now) speed = s;
    }
    if (!moved_then && !moved_now) continue;
    if (now() > ks.run_start_ref()) flush_accounting(k);  // At the old speed.
    ks.current_speed_ref() = speed;
    if (moved_now)
      arm_after |= 1ULL << k;
    else
      arm_stop(k);
  }
  if (started) arm_stop(c);
  for (; arm_after != 0; arm_after &= arm_after - 1)
    arm_stop(std::countr_zero(arm_after));
}

// --- Placement ------------------------------------------------------------

void Simulator::enqueue_on(Task& t, CoreId c, bool sleeper_bonus) {
  auto& cs = core(c);
  assert(cs.online());  // Every placement path filters offline cores.
  if (t.sleep_since_ != kNever) {  // Close the sleep interval (wake/start).
    t.total_sleep_ += now() - t.sleep_since_;
    t.sleep_since_ = kNever;
  }
  t.core_ref() = c;
  t.state_ref() = TaskState::Runnable;
  cs.queue().enqueue(t, sleeper_bonus);
  if (cs.running_ref() == nullptr) {
    dispatch(c);
  } else if (sleeper_bonus && cs.queue().should_preempt(t, *cs.running_ref())) {
    halt_running(c);
    dispatch(c);
  }
}

void Simulator::maybe_refresh_load_snapshot() {
  if (load_snapshot_time_ != kNever &&
      now() - load_snapshot_time_ < params_.load_snapshot_period)
    return;
  for (CoreId c = 0; c < num_cores(); ++c)
    load_snapshot_[static_cast<std::size_t>(c)] =
        static_cast<int>(core(c).queue().nr_running());
  load_snapshot_time_ = now();
}

CoreId Simulator::select_core_fork(const Task& t) {
  maybe_refresh_load_snapshot();
  int best_load = std::numeric_limits<int>::max();
  std::vector<CoreId> best;
  for (CoreId c = 0; c < num_cores(); ++c) {
    if (!t.allowed_on(c) || !core(c).online()) continue;
    const int load = load_snapshot_[static_cast<std::size_t>(c)];
    if (load < best_load) {
      best_load = load;
      best.assign(1, c);
    } else if (load == best_load) {
      best.push_back(c);
    }
  }
  if (best.empty())
    throw std::invalid_argument("start_task: no online core in affinity");
  return best[rng_.uniform_u64(best.size())];
}

CoreId Simulator::select_core_wake(const Task& t) {
  const CoreId prev = t.core();
  // An offline core looks idle (nothing runs there) but must never attract
  // a wake-up.
  const std::uint64_t usable = t.allowed_ & core_store_.online;
  const std::uint64_t prev_bit = prev >= 0 ? 1ULL << prev : 0;
  if ((usable & prev_bit) != 0 && core_at(prev).idle()) return prev;
  std::uint64_t idle = 0;
  for (std::uint64_t m = usable; m != 0; m &= m - 1) {
    const int c = std::countr_zero(m);
    if (core_at(c).idle()) idle |= 1ULL << c;
  }
  // Nearest idle core first (same cache, socket, NUMA node), the lowest
  // index within a rank.
  if (idle != 0) {
    if (prev >= 0) {
      const NearMasks& near = near_[static_cast<std::size_t>(prev)];
      for (const std::uint64_t rank : {near.cache, near.socket, near.numa})
        if ((idle & rank) != 0) return std::countr_zero(idle & rank);
    }
    return std::countr_zero(idle);
  }
  if ((usable & prev_bit) != 0) return prev;
  // No idle core and previous core unusable: least-loaded allowed core.
  return least_loaded_online(t.allowed_);
}

CoreId Simulator::least_loaded_online(std::uint64_t mask) const {
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  CoreId best = -1;
  for (std::uint64_t m = mask & core_store_.online; m != 0; m &= m - 1) {
    const int c = std::countr_zero(m);
    const std::size_t load =
        cores_[static_cast<std::size_t>(c)].queue().nr_running();
    if (load < best_load) {
      best_load = load;
      best = c;
    }
  }
  return best;
}

}  // namespace speedbal
