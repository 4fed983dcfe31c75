#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "topo/presets.hpp"
#include "util/rng.hpp"

namespace speedbal {
namespace {

/// Test client: records completions and delegates follow-up behaviour to a
/// lambda (default: finish the task).
struct Recorder : TaskClient {
  std::vector<TaskId> completions;
  std::function<void(Simulator&, Task&)> next;

  void on_work_complete(Simulator& sim, Task& task) override {
    completions.push_back(task.id());
    if (next) {
      next(sim, task);
    } else {
      sim.finish_task(task);
    }
  }
};

TEST(Simulator, SingleTaskRunsToCompletion) {
  Simulator sim(presets::generic(1));
  Recorder rec;
  TaskSpec spec;
  spec.name = "solo";
  spec.client = &rec;
  Task& t = sim.create_task(spec);
  sim.assign_work(t, 50'000.0);  // 50 ms.
  sim.start_task_on(t, 0);
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  EXPECT_EQ(t.state(), TaskState::Finished);
  EXPECT_EQ(sim.now(), msec(50));  // Exactly the work, at speed 1.
  EXPECT_EQ(t.total_exec(), msec(50));
  EXPECT_EQ(rec.completions.size(), 1u);
}

TEST(Simulator, TwoTasksShareOneCoreFairly) {
  Simulator sim(presets::generic(1));
  Task& a = sim.create_task({.name = "a"});
  Task& b = sim.create_task({.name = "b"});
  sim.assign_work(a, 100'000.0);
  sim.assign_work(b, 100'000.0);
  sim.start_task_on(a, 0);
  sim.start_task_on(b, 0);
  sim.run_while_pending(
      [&] {
        return a.state() == TaskState::Finished && b.state() == TaskState::Finished;
      },
      sec(1));
  // Total 200 ms of work on one core.
  EXPECT_EQ(sim.now(), msec(200));
  // Both finish within one timeslice of each other (interleaved fairly).
  EXPECT_EQ(a.total_exec(), msec(100));
  EXPECT_EQ(b.total_exec(), msec(100));
}

TEST(Simulator, WorkConservation) {
  // Sum of per-core busy time equals the sum of work executed.
  Simulator sim(presets::generic(4));
  std::vector<Task*> tasks;
  for (int i = 0; i < 7; ++i) {
    Task& t = sim.create_task({.name = "t" + std::to_string(i)});
    sim.assign_work(t, 30'000.0 * (i + 1));
    sim.start_task(t);
    tasks.push_back(&t);
  }
  sim.run_while_pending(
      [&] {
        for (Task* t : tasks)
          if (t->state() != TaskState::Finished) return false;
        return true;
      },
      sec(10));
  SimTime busy = 0;
  for (CoreId c = 0; c < 4; ++c) busy += sim.core(c).busy_time();
  SimTime exec = 0;
  for (Task* t : tasks) exec += t->total_exec();
  EXPECT_EQ(busy, exec);
  EXPECT_EQ(exec, usec(30'000) * (1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(Simulator, SyncAccountingIsExactMidRun) {
  Simulator sim(presets::generic(1));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 1'000'000.0);
  sim.start_task_on(t, 0);
  sim.run_until(msec(37));
  sim.sync_accounting(0);
  EXPECT_EQ(t.total_exec(), msec(37));
  EXPECT_DOUBLE_EQ(t.remaining_work(), 1'000'000.0 - 37'000.0);
}

TEST(Simulator, SleepRemovesFromQueueAndWakeRestores) {
  Simulator sim(presets::generic(2));
  Recorder rec;
  rec.next = [](Simulator& s, Task& task) { s.sleep_task(task); };
  Task& t = sim.create_task({.name = "t", .client = &rec});
  sim.assign_work(t, 10'000.0);
  sim.start_task_on(t, 0);
  sim.run_while_pending([&] { return t.state() == TaskState::Sleeping; }, sec(1));
  EXPECT_EQ(t.state(), TaskState::Sleeping);
  EXPECT_EQ(sim.core(0).queue().nr_running(), 0u);

  sim.assign_work(t, 5'000.0);
  rec.next = nullptr;
  sim.wake_task(t);
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  EXPECT_EQ(t.total_exec(), msec(15));
}

TEST(Simulator, TimedSleepWakesAutomatically) {
  Simulator sim(presets::generic(1));
  Recorder rec;
  int phase = 0;
  rec.next = [&phase](Simulator& s, Task& task) {
    if (phase++ == 0) {
      s.assign_work(task, 1'000.0);
      s.sleep_task_for(task, msec(20));
    } else {
      s.finish_task(task);
    }
  };
  Task& t = sim.create_task({.name = "t", .client = &rec});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0);
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  // 1 ms work + 20 ms sleep + 1 ms work.
  EXPECT_EQ(sim.now(), msec(22));
  EXPECT_EQ(t.total_exec(), msec(2));
}

TEST(Simulator, WakePrefersPreviousIdleCore) {
  Simulator sim(presets::generic(4));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 2);
  sim.run_until(usec(100));
  sim.sleep_task(t);
  sim.assign_work(t, 1'000.0);
  sim.wake_task(t);
  EXPECT_EQ(t.core(), 2);
}

TEST(Simulator, WakeMovesToIdleCoreWhenPrevBusy) {
  Simulator sim(presets::tigerton());
  Task& sleeper = sim.create_task({.name = "sleeper"});
  sim.assign_work(sleeper, 1'000.0);
  sim.start_task_on(sleeper, 0);
  sim.run_until(usec(100));
  sim.sleep_task(sleeper);

  Task& hog = sim.create_task({.name = "hog"});
  sim.assign_work(hog, 10'000'000.0);
  sim.start_task_on(hog, 0);

  sim.assign_work(sleeper, 1'000.0);
  sim.wake_task(sleeper);
  // Previous core busy: wake placement finds a nearby idle core (the cache
  // sibling of core 0 on Tigerton is core 1).
  EXPECT_EQ(sleeper.core(), 1);
}

TEST(Simulator, MigrationChargesWarmup) {
  SimParams params;
  MemoryModelParams mem;
  mem.migration_fixed_us = 10.0;
  mem.refill_us_per_kb = 1.0;
  mem.llc_kb = 1000.0;
  params.mem = mem;
  Simulator sim(presets::dual_socket(2), params);
  Task& t = sim.create_task({.name = "t", .mem_footprint_kb = 500.0});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0, ~0ULL);
  sim.migrate(t, 2, MigrationCause::Affinity);  // Cross-socket.
  EXPECT_EQ(t.migrations(), 1);
  EXPECT_DOUBLE_EQ(t.warmup_remaining(), 10.0 + 500.0);
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  // The warmup is real execution time: 1000 us work + 510 us refill.
  EXPECT_EQ(t.total_exec(), usec(1510));
}

TEST(Simulator, MigrationOfRunningTaskStopsItImmediately) {
  // sched_setaffinity semantics: the task does not finish its quantum.
  Simulator sim(presets::generic(2));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 1'000'000.0);
  sim.start_task_on(t, 0, ~0ULL);
  sim.run_until(msec(1));
  ASSERT_EQ(t.state(), TaskState::Running);
  sim.migrate(t, 1, MigrationCause::Affinity);
  EXPECT_EQ(t.core(), 1);
  EXPECT_EQ(sim.core(0).running(), nullptr);
  EXPECT_EQ(sim.core(1).running(), &t);  // Idle destination dispatches it.
  EXPECT_EQ(t.total_exec(), msec(1));    // Accounting flushed at migration.
}

TEST(Simulator, SetAffinityMovesExcludedTask) {
  Simulator sim(presets::generic(4));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 100'000.0);
  sim.start_task_on(t, 0, ~0ULL);
  sim.set_affinity(t, 1ULL << 3, /*hard_pin=*/true);
  EXPECT_EQ(t.core(), 3);
  EXPECT_TRUE(t.hard_pinned());
  EXPECT_FALSE(t.allowed_on(0));
}

TEST(Simulator, SetAffinityOnSleeperLogsTheMigration) {
  // Regression: the fuzz harness's decision-vs-migration cross-check found
  // that moving a *sleeping* task via set_affinity retargeted it silently,
  // so a SPEED pull of an idle serve worker logged a Pulled decision with
  // no matching migration record. The move must hit the metrics log with
  // the caller's cause even when it only takes effect at wake-up.
  Simulator sim(presets::generic(4));
  Recorder rec;
  Task& t = sim.create_task({.name = "t", .client = &rec});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0, ~0ULL);
  sim.sleep_task(t);
  ASSERT_EQ(t.state(), TaskState::Sleeping);
  const auto before = sim.metrics().migrations().size();
  ASSERT_TRUE(sim.set_affinity(t, 1ULL << 2, /*hard_pin=*/false,
                               MigrationCause::SpeedBalancer));
  ASSERT_EQ(sim.metrics().migrations().size(), before + 1);
  const MigrationRecord& moved = sim.metrics().migrations().back();
  EXPECT_EQ(moved.task, t.id());
  EXPECT_EQ(moved.from, 0);
  EXPECT_EQ(moved.to, 2);
  EXPECT_EQ(moved.cause, MigrationCause::SpeedBalancer);
  EXPECT_EQ(t.core(), 2);  // Takes effect at wake-up.
  sim.wake_task(t);
  EXPECT_EQ(t.core(), 2);
}

TEST(Simulator, MigrateRejectsDisallowedDestination) {
  Simulator sim(presets::generic(2));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0, 0b01);
  EXPECT_THROW(sim.migrate(t, 1, MigrationCause::Affinity), std::invalid_argument);
}

TEST(Simulator, ForkPlacementUsesStaleSnapshot) {
  // Tasks created within the staleness window all see the same (empty)
  // load picture: they can clump (the paper's footnote on start-up).
  SimParams params;
  params.load_snapshot_period = msec(10);
  int clumped_runs = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Simulator sim(presets::generic(4), params, seed);
    std::vector<Task*> tasks;
    for (int i = 0; i < 4; ++i) {
      Task& t = sim.create_task({.name = "t" + std::to_string(i)});
      sim.assign_work(t, 1'000.0);
      sim.start_task(t);
      tasks.push_back(&t);
    }
    std::set<CoreId> used;
    for (Task* t : tasks) used.insert(t->core());
    if (used.size() < 4) ++clumped_runs;
  }
  // With stale tie-breaking the placement is random: clumping must occur
  // in some runs (4 tasks over 4 cores collide with prob ~90%).
  EXPECT_GT(clumped_runs, 5);
}

TEST(Simulator, ForkPlacementSeesFreshLoadAfterWindow) {
  SimParams params;
  params.load_snapshot_period = msec(10);
  Simulator sim(presets::generic(2), params, 1);
  Task& hog = sim.create_task({.name = "hog"});
  sim.assign_work(hog, 10'000'000.0);
  sim.start_task_on(hog, 0, ~0ULL);
  sim.run_until(msec(20));  // Past the snapshot window.
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 1'000.0);
  sim.start_task(t);
  EXPECT_EQ(t.core(), 1);  // Fresh snapshot: core 1 is idle.
}

TEST(Simulator, SmtSiblingContentionSlowsExecution) {
  Simulator sim(presets::nehalem());
  Task& a = sim.create_task({.name = "a"});
  sim.assign_work(a, 100'000.0);
  sim.start_task_on(a, 0, ~0ULL);
  Task& b = sim.create_task({.name = "b"});
  sim.assign_work(b, 100'000.0);
  sim.start_task_on(b, 1, ~0ULL);  // SMT sibling of core 0.
  sim.run_while_pending(
      [&] {
        return a.state() == TaskState::Finished && b.state() == TaskState::Finished;
      },
      sec(10));
  // Both contexts busy: each runs at the contention factor (0.65 default),
  // so 100 ms of work takes ~154 ms.
  EXPECT_GT(sim.now(), msec(150));
  EXPECT_LT(sim.now(), msec(160));
}

TEST(Simulator, BandwidthContentionSlowsMemoryTasks) {
  SimParams params;
  MemoryModelParams mem;
  mem.node_bw_capacity = 1.0;
  mem.system_bw_capacity = 1.0;
  mem.numa_remote_penalty = 0.0;
  params.mem = mem;
  Simulator sim(presets::generic(2), params);
  // Two fully memory-bound tasks saturate a capacity of 1.0 twice over.
  std::vector<Task*> tasks;
  for (int i = 0; i < 2; ++i) {
    TaskSpec spec;
    spec.name = "mem" + std::to_string(i);
    spec.mem_intensity = 1.0;
    spec.mem_bw_demand = 1.0;
    Task& t = sim.create_task(spec);
    sim.assign_work(t, 100'000.0);
    sim.start_task_on(t, i, ~0ULL);
    tasks.push_back(&t);
  }
  sim.run_while_pending(
      [&] {
        return tasks[0]->state() == TaskState::Finished &&
               tasks[1]->state() == TaskState::Finished;
      },
      sec(10));
  // Demand 2.0 over capacity 1.0: both run at half speed -> 200 ms.
  EXPECT_NEAR(to_msec(sim.now()), 200.0, 2.0);
}

/// Task A pinned to core 0 with a timeslice longer than its work, so it
/// runs as one stretch; task B (bandwidth-demanding, pinned to core 1)
/// starts and stops in the middle of that stretch, and core 0's clock
/// halves at 40 ms. Each of those re-times A without ending its stretch.
struct StretchRig {
  obs::RunRecorder rec;  ///< Keeps the run segments; outlives sim.
  Simulator sim;
  Task* a = nullptr;
  Task* b = nullptr;
  double speed_with_b = 0.0;
  double speed_after_dvfs = 0.0;

  static SimParams params() {
    SimParams p;
    p.cfs.sched_latency = sec(10);
    MemoryModelParams mem;
    mem.node_bw_capacity = 1.0;
    mem.system_bw_capacity = 1.0;
    mem.numa_remote_penalty = 0.0;
    p.mem = mem;
    return p;
  }

  StretchRig() : sim(presets::generic(2), params()) {
    sim.set_recorder(&rec);
    TaskSpec spec;
    spec.mem_intensity = 0.5;
    spec.mem_bw_demand = 0.8;
    spec.name = "a";
    a = &sim.create_task(spec);
    spec.name = "b";
    b = &sim.create_task(spec);
    sim.assign_work(*a, 100'000.0);
    sim.assign_work(*b, 10'000.0);
    sim.start_task_on(*a, 0, 1ULL << 0);
    sim.schedule_at(msec(10), [this] { sim.start_task_on(*b, 1, 1ULL << 1); });
    sim.schedule_at(msec(15), [this] {
      speed_with_b = sim.core(0).current_speed();
    });
    sim.schedule_at(msec(40), [this] { sim.set_clock_scale(0, 0.5); });
    sim.schedule_at(msec(45), [this] {
      speed_after_dvfs = sim.core(0).current_speed();
    });
  }

  void run() {
    sim.run_while_pending(
        [&] {
          return a->state() == TaskState::Finished &&
                 b->state() == TaskState::Finished;
        },
        sec(10));
    ASSERT_EQ(a->state(), TaskState::Finished);
    ASSERT_EQ(b->state(), TaskState::Finished);
  }

  /// Every segment recorded so far: each call hands the run's newly kept
  /// segments over to the recorder, whose table accumulates them.
  std::vector<obs::RunSegmentRecord> segments() {
    export_run_to_recorder(sim.metrics(), rec);
    return rec.run_segments().snapshot();
  }

  std::vector<obs::RunSegmentRecord> segments_of(const Task& t) {
    std::vector<obs::RunSegmentRecord> out;
    for (const obs::RunSegmentRecord& seg : segments())
      if (seg.task == t.id()) out.push_back(seg);
    return out;
  }
};

/// Σ segment durations per (task, core) equals exec_by_core, per task equals
/// total_exec, and no two segments on one core overlap.
void expect_segments_consistent(StretchRig& rig) {
  const Simulator& sim = rig.sim;
  const Metrics& m = sim.metrics();
  const std::vector<obs::RunSegmentRecord> segs = rig.segments();
  std::vector<std::vector<SimTime>> sums(
      static_cast<std::size_t>(sim.num_tasks()),
      std::vector<SimTime>(static_cast<std::size_t>(sim.num_cores()), 0));
  for (const obs::RunSegmentRecord& seg : segs)
    sums[static_cast<std::size_t>(seg.task)]
        [static_cast<std::size_t>(seg.core)] += seg.dur_us;
  for (TaskId id = 0; id < sim.num_tasks(); ++id) {
    EXPECT_EQ(sums[static_cast<std::size_t>(id)], m.exec_by_core(id));
    EXPECT_EQ(m.total_exec(id), sim.task(id).total_exec());
  }
  std::vector<obs::RunSegmentRecord> by_core = segs;
  std::sort(by_core.begin(), by_core.end(),
            [](const obs::RunSegmentRecord& x, const obs::RunSegmentRecord& y) {
              return x.core != y.core ? x.core < y.core
                                      : x.start_us < y.start_us;
            });
  for (std::size_t i = 1; i < by_core.size(); ++i) {
    if (by_core[i].core == by_core[i - 1].core) {
      EXPECT_LE(by_core[i - 1].start_us + by_core[i - 1].dur_us,
                by_core[i].start_us);
    }
  }
}

TEST(Simulator, SpeedChangesDoNotCutRunSegments) {
  StretchRig rig;
  rig.run();
  // The refreshes really re-timed A: B's bandwidth demand pushed the bus
  // past capacity, then the DVFS step halved the clock.
  EXPECT_LT(rig.speed_with_b, 1.0);
  EXPECT_DOUBLE_EQ(rig.speed_after_dvfs, 0.5);
  // One stretch each, so one segment each.
  const auto a_segs = rig.segments_of(*rig.a);
  ASSERT_EQ(a_segs.size(), 1u);
  EXPECT_EQ(a_segs[0].core, 0);
  EXPECT_EQ(a_segs[0].start_us, 0);
  EXPECT_EQ(a_segs[0].dur_us, rig.a->total_exec());
  const auto b_segs = rig.segments_of(*rig.b);
  ASSERT_EQ(b_segs.size(), 1u);
  EXPECT_EQ(b_segs[0].core, 1);
  EXPECT_EQ(b_segs[0].start_us, msec(10));
  expect_segments_consistent(rig);
}

TEST(Simulator, SyncAccountingMakesWindowsExactMidStretch) {
  StretchRig rig;
  SimTime window = -1;
  SimTime total = -1;
  SimTime recent = -1;
  rig.sim.schedule_at(msec(50), [&] {
    rig.sim.sync_accounting(0);
    total = rig.sim.metrics().total_exec(rig.a->id());
    const auto segs = rig.segments();
    window = exec_in_window(segs, rig.a->id(), 0, msec(50));
    recent = exec_in_window(segs, rig.a->id(), msec(20), msec(50));
  });
  rig.run();
  EXPECT_EQ(total, msec(50));
  EXPECT_EQ(window, msec(50));
  EXPECT_EQ(recent, msec(30));
  // The sync split A's one stretch into two adjacent pieces.
  const auto a_segs = rig.segments_of(*rig.a);
  ASSERT_EQ(a_segs.size(), 2u);
  EXPECT_EQ(a_segs[0].start_us, 0);
  EXPECT_EQ(a_segs[0].dur_us, msec(50));
  EXPECT_EQ(a_segs[1].start_us, msec(50));
  EXPECT_EQ(a_segs[0].core, a_segs[1].core);
  expect_segments_consistent(rig);
}

TEST(Simulator, ParkAndUnpark) {
  Simulator sim(presets::generic(1));
  Task& a = sim.create_task({.name = "a"});
  Task& b = sim.create_task({.name = "b"});
  sim.assign_work(a, 50'000.0);
  sim.assign_work(b, 50'000.0);
  sim.start_task_on(a, 0);
  sim.start_task_on(b, 0);
  sim.run_until(msec(1));
  sim.park_task(a);
  EXPECT_EQ(a.state(), TaskState::Parked);
  EXPECT_EQ(sim.core(0).queue().nr_running(), 1u);
  sim.run_while_pending([&] { return b.state() == TaskState::Finished; }, sec(1));
  // b finished while a was parked; a resumes after unpark.
  sim.unpark_task(a);
  sim.run_while_pending([&] { return a.state() == TaskState::Finished; }, sec(1));
  EXPECT_EQ(a.total_exec(), msec(50));
}

TEST(Simulator, IdleHookInvokedOnIdleTransition) {
  Simulator sim(presets::generic(2));
  std::vector<CoreId> idle_calls;
  sim.set_idle_hook([&](CoreId c) { idle_calls.push_back(c); });
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0);
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  EXPECT_FALSE(idle_calls.empty());
  EXPECT_EQ(idle_calls.front(), 0);
}

TEST(Simulator, IdleHookMayPullWork) {
  // A new-idle style hook migrating a queued task into the idle core.
  Simulator sim(presets::generic(2));
  sim.set_idle_hook([&](CoreId c) {
    const CoreId other = 1 - c;
    for (Task* cand : sim.tasks_on(other)) {
      if (cand->state() != TaskState::Running && cand->allowed_on(c)) {
        sim.migrate(*cand, c, MigrationCause::LinuxNewIdle);
        return;
      }
    }
  });
  Task& a = sim.create_task({.name = "a"});
  Task& b = sim.create_task({.name = "b"});
  Task& c = sim.create_task({.name = "c"});
  for (Task* t : {&a, &b, &c}) sim.assign_work(*t, 50'000.0);
  sim.start_task_on(a, 0, ~0ULL);
  sim.start_task_on(b, 0, ~0ULL);
  sim.start_task_on(c, 1, ~0ULL);
  sim.run_while_pending([&] { return c.state() == TaskState::Finished; }, sec(1));
  // When core 1 finishes c (at 50 ms), it pulls a or b instead of idling;
  // total 150 ms of work then completes well before the 150 ms serial time.
  sim.run_while_pending(
      [&] {
        return a.state() == TaskState::Finished && b.state() == TaskState::Finished;
      },
      sec(1));
  EXPECT_LE(sim.now(), msec(110));
  EXPECT_EQ(sim.metrics().migration_count(MigrationCause::LinuxNewIdle), 1);
}

TEST(Simulator, SpinWaiterBurnsCpuUntilReleased) {
  Simulator sim(presets::generic(1));
  Recorder rec;
  rec.next = [](Simulator& s, Task& task) { s.set_wait_mode(task, WaitMode::Spin); };
  Task& t = sim.create_task({.name = "t", .client = &rec});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0);
  sim.run_until(msec(100));
  sim.sync_accounting(0);
  // Spinning the whole time: exec equals wall clock.
  EXPECT_EQ(t.total_exec(), msec(100));
  EXPECT_EQ(t.state(), TaskState::Running);

  rec.next = nullptr;
  sim.assign_work(t, 1'000.0);  // Release.
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  EXPECT_EQ(sim.now(), msec(101));
}

TEST(Simulator, YieldWaiterCedesCpuToWorker) {
  Simulator sim(presets::generic(1));
  Recorder rec;
  rec.next = [](Simulator& s, Task& task) { s.set_wait_mode(task, WaitMode::Yield); };
  Task& waiter = sim.create_task({.name = "waiter", .client = &rec});
  sim.assign_work(waiter, 100.0);
  sim.start_task_on(waiter, 0);

  Task& worker = sim.create_task({.name = "worker"});
  sim.assign_work(worker, 100'000.0);
  sim.start_task_on(worker, 0);

  sim.run_while_pending([&] { return worker.state() == TaskState::Finished; },
                        sec(1));
  // The yielding waiter stays on the run queue but consumes almost nothing:
  // the worker's 100 ms of work completes in barely more wall time.
  EXPECT_LT(sim.now(), msec(105));
  sim.sync_accounting(0);
  EXPECT_LT(waiter.total_exec(), msec(5));
}

TEST(Simulator, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(presets::tigerton(), {}, seed);
    std::vector<Task*> tasks;
    for (int i = 0; i < 10; ++i) {
      Task& t = sim.create_task({.name = "t" + std::to_string(i)});
      sim.assign_work(t, 10'000.0 * (1 + i % 3));
      sim.start_task(t);
      tasks.push_back(&t);
    }
    sim.run_while_pending(
        [&] {
          for (Task* t : tasks)
            if (t->state() != TaskState::Finished) return false;
          return true;
        },
        sec(10));
    return sim.now();
  };
  EXPECT_EQ(run(99), run(99));
  // And placement randomness actually depends on the seed somewhere.
  bool any_diff = false;
  for (std::uint64_t s = 0; s < 10 && !any_diff; ++s) any_diff = run(s) != run(s + 100);
  (void)any_diff;  // Timing may coincide; no assertion — smoke only.
}

TEST(Simulator, RejectsBadApiUsage) {
  Simulator sim(presets::generic(1));
  Task& t = sim.create_task({.name = "t"});
  EXPECT_THROW(sim.assign_work(t, 0.0), std::invalid_argument);
  EXPECT_THROW(sim.assign_work(t, -5.0), std::invalid_argument);
  EXPECT_THROW(sim.start_task(t, 0), std::invalid_argument);
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0);
  EXPECT_THROW(sim.set_affinity(t, 0, false), std::invalid_argument);
  sim.finish_task(t);
  EXPECT_THROW(sim.migrate(t, 0, MigrationCause::Affinity), std::logic_error);
  EXPECT_THROW(sim.sleep_task(t), std::logic_error);
}

TEST(Simulator, ClientMustProvideWork) {
  // A TaskClient that leaves its task runnable without work is a bug; the
  // simulator reports it instead of spinning forever.
  Simulator sim(presets::generic(1));
  Recorder rec;
  rec.next = [](Simulator&, Task&) { /* forgets to assign work */ };
  Task& t = sim.create_task({.name = "t", .client = &rec});
  sim.assign_work(t, 100.0);
  sim.start_task_on(t, 0);
  EXPECT_THROW(sim.run_while_pending([] { return false; }, sec(1)),
               std::logic_error);
}

// --- Wake placement against the reference scan ------------------------------

/// Which branch of the reference scan a wake-up took.
struct WakeCoverage {
  int unplaced = 0;       ///< Never ran: no previous core.
  int prev_idle = 0;      ///< Previous core usable and idle.
  std::array<int, 4> rank{};  ///< Idle core at rank 0..3 from prev.
  int prev_busy = 0;      ///< No idle core; previous core usable.
  int least_loaded = 0;   ///< No idle core; previous core unusable.
  int prev_offline = 0;   ///< Previous core offline at the wake.
  int widened = 0;        ///< Every allowed core offline.
};

/// Wake placement as a linear scan over every core, the reference the
/// simulator's bitmask placement must match: the previous
/// core if usable and idle; else the nearest usable idle core (same cache,
/// then socket, then NUMA node, lowest index within a rank); else the
/// previous core if usable; else the least-loaded usable core. `online` is
/// the test's own record of which cores are up.
CoreId reference_wake_core(const Simulator& sim, const Task& t,
                           const std::vector<bool>& online,
                           WakeCoverage& cov) {
  const Topology& topo = sim.topo();
  const int n = sim.num_cores();
  std::uint64_t allowed = t.allowed_mask();
  bool any_allowed = false;
  std::uint64_t all_online = 0;
  for (CoreId c = 0; c < n; ++c) {
    if (!online[static_cast<std::size_t>(c)]) continue;
    all_online |= 1ULL << c;
    any_allowed = any_allowed || ((allowed >> c) & 1) != 0;
  }
  if (!any_allowed) {
    allowed = all_online;  // select_fallback_rq.
    ++cov.widened;
  }
  const auto usable = [&](CoreId c) {
    return ((allowed >> c) & 1) != 0 && online[static_cast<std::size_t>(c)];
  };
  const CoreId prev = t.core();
  if (prev < 0) ++cov.unplaced;
  if (prev >= 0 && !online[static_cast<std::size_t>(prev)]) ++cov.prev_offline;
  if (prev >= 0 && usable(prev) && sim.core(prev).idle()) {
    ++cov.prev_idle;
    return prev;
  }
  CoreId best = -1;
  int best_rank = 4;
  for (CoreId c = 0; c < n; ++c) {
    if (!usable(c) || !sim.core(c).idle()) continue;
    int rank = 3;
    if (prev >= 0) {
      if (topo.same_cache(prev, c)) rank = 0;
      else if (topo.same_socket(prev, c)) rank = 1;
      else if (topo.same_numa(prev, c)) rank = 2;
    }
    if (rank < best_rank) {
      best_rank = rank;
      best = c;
    }
  }
  if (best >= 0) {
    ++cov.rank[static_cast<std::size_t>(best_rank)];
    return best;
  }
  if (prev >= 0 && usable(prev)) {
    ++cov.prev_busy;
    return prev;
  }
  ++cov.least_loaded;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (CoreId c = 0; c < n; ++c) {
    if (!usable(c) || sim.core(c).queue().nr_running() >= best_load) continue;
    best_load = sim.core(c).queue().nr_running();
    best = c;
  }
  return best;
}

/// A random affinity mask over `n` cores: one core, a random subset, or
/// all of them.
std::uint64_t random_mask(Rng& rng, int n) {
  const std::uint64_t all = n >= 64 ? ~0ULL : (1ULL << n) - 1;
  const double pick = rng.uniform();
  if (pick < 0.3)
    return 1ULL << rng.uniform_u64(static_cast<std::uint64_t>(n));
  if (pick < 0.8) {
    const std::uint64_t m = rng.next_u64() & all;
    return m != 0 ? m : all;
  }
  return all;
}

/// Random running and sleeping tasks, hotplug and affinity changes through
/// the public API; before every wake_task, the reference scan predicts the
/// core and the wake must land there.
void drive_wakes(const Topology& topo, int num_tasks, std::uint64_t seed,
                 WakeCoverage& cov) {
  Simulator sim(topo, {}, seed);
  Rng rng(seed);
  const int n = sim.num_cores();
  std::vector<bool> online(static_cast<std::size_t>(n), true);
  std::vector<Task*> tasks;
  for (int i = 0; i < num_tasks; ++i) {
    Task& t = sim.create_task({.name = "w" + std::to_string(i)});
    sim.assign_work(t, 1e12);  // Never completes within the test.
    tasks.push_back(&t);
  }
  for (int step = 0; step < 4000; ++step) {
    Task& t = *tasks[rng.uniform_u64(tasks.size())];
    const double op = rng.uniform();
    if (op < 0.55) {
      if (t.state() == TaskState::Sleeping) {
        const CoreId want = reference_wake_core(sim, t, online, cov);
        sim.wake_task(t);
        ASSERT_EQ(t.core(), want) << topo.name() << " seed=" << seed
                                  << " step=" << step;
      } else if (rng.uniform() < 0.4) {
        sim.sleep_task(t);
      }
    } else if (op < 0.75) {
      sim.set_affinity(t, random_mask(rng, n), rng.uniform() < 0.5);
    } else if (op < 0.85) {
      const CoreId c = static_cast<CoreId>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
      const bool up = !online[static_cast<std::size_t>(c)];
      if (!up && sim.num_online_cores() <= 1) continue;
      sim.set_core_online(c, up);
      online[static_cast<std::size_t>(c)] = up;
    } else {
      sim.run_until(sim.now() + static_cast<SimTime>(rng.uniform_u64(3000)));
    }
    // The O(1) online set agrees with the test's own record.
    std::uint64_t mask = 0;
    for (CoreId c = 0; c < n; ++c)
      if (online[static_cast<std::size_t>(c)]) mask |= 1ULL << c;
    ASSERT_EQ(sim.online_mask(), mask);
    ASSERT_EQ(sim.num_online_cores(), std::popcount(mask));
  }
}

TEST(Simulator, WakePlacementMatchesTheReferenceScan) {
  for (const char* name : {"tigerton", "barcelona", "nehalem", "generic4"}) {
    const Topology topo = presets::by_name(name);
    WakeCoverage cov;
    std::uint64_t seed = 1;
    const int n = topo.num_cores();
    // Few tasks leave idle cores everywhere; many leave none.
    for (const int num_tasks : {n / 2 + 1, n + 1, 2 * n + 1})
      for (int rep = 0; rep < 4; ++rep) {
        drive_wakes(topo, num_tasks, seed++, cov);
        if (HasFatalFailure()) return;
      }
    // Every branch of the scan was taken, and each rank the machine has.
    EXPECT_GT(cov.unplaced, 0) << name;
    EXPECT_GT(cov.prev_idle, 0) << name;
    EXPECT_GT(cov.prev_busy, 0) << name;
    EXPECT_GT(cov.least_loaded, 0) << name;
    EXPECT_GT(cov.prev_offline, 0) << name;
    EXPECT_GT(cov.widened, 0) << name;
    EXPECT_GT(cov.rank[0], 0) << name;
    EXPECT_GT(cov.rank[3], 0) << name;
    if (topo.num_cache_groups() > topo.num_sockets()) {
      EXPECT_GT(cov.rank[1], 0) << name;  // tigerton's L2 pairs.
    }
    if (topo.num_sockets() > topo.num_numa_nodes()) {
      EXPECT_GT(cov.rank[2], 0) << name;  // tigerton's four sockets on one bus.
    }
  }
}

}  // namespace
}  // namespace speedbal
