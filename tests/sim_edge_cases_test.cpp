// Edge cases and failure injection for the simulation substrate: behaviours
// that only show up under unusual interleavings (migration races, dynamic
// task arrival, zero-work flushes, balancing of dying applications).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "balance/speed.hpp"
#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal {
namespace {

struct Hog : TaskClient {
  void on_work_complete(Simulator& sim, Task& task) override {
    sim.assign_work(task, 1e9);
  }
};

TEST(SimEdge, MigrateRunningTaskWhoseWorkJustCompleted) {
  // Regression: flushing accounting during a migration can consume the last
  // of the task's work; the destination must run the completion path
  // instead of dispatching a work-less task.
  Simulator sim(presets::generic(2));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 10'000.0);
  // Schedule the migration BEFORE starting the task: events at equal times
  // fire in insertion order, so at t=10ms the migration runs first, its
  // accounting flush consumes the last of the work, and the cancelled stop
  // event never fires.
  sim.schedule_at(msec(10), [&] {
    if (t.state() != TaskState::Finished)
      sim.migrate(t, 1, MigrationCause::Affinity);
  });
  sim.start_task_on(t, 0, ~0ULL);
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  EXPECT_EQ(t.state(), TaskState::Finished);
  // Exactly the work plus the (microsecond) fixed migration cost.
  EXPECT_GE(t.total_exec(), msec(10));
  EXPECT_LT(t.total_exec(), msec(10) + usec(100));
}

TEST(SimEdge, SyncAccountingAtCompletionInstant) {
  Simulator sim(presets::generic(1));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 5'000.0);
  sim.start_task_on(t, 0);
  sim.schedule_at(msec(5), [&] { sim.sync_all_accounting(); });
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  EXPECT_EQ(t.total_exec(), msec(5));
}

TEST(SimEdge, AssignWorkToARunningWaiterCreditsNoSpin) {
  // A yield-waiting task keeps its core but makes no progress. Work handed
  // to it while it spins starts at the hand-over: the spin since the
  // core's last accounting flush must not count as work done.
  Simulator sim(presets::generic(1));
  struct Cli : TaskClient {
    int completions = 0;
    SimTime done_at = -1;
    void on_work_complete(Simulator& s, Task& task) override {
      if (++completions == 1) {
        s.set_wait_mode(task, WaitMode::Yield);
      } else {
        done_at = s.now();
        s.finish_task(task);
      }
    }
  } client;
  Task& t = sim.create_task({.name = "t", .client = &client});
  sim.assign_work(t, 100.0);
  sim.start_task_on(t, 0);
  sim.schedule_at(usec(600), [&] { sim.assign_work(t, 100.0); });
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  EXPECT_EQ(client.completions, 2);
  EXPECT_EQ(client.done_at, usec(700));
}

TEST(SimEdge, SleepImmediatelyAfterStart) {
  Simulator sim(presets::generic(1));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0);
  sim.sleep_task(t);  // Before any event ran.
  EXPECT_EQ(t.state(), TaskState::Sleeping);
  EXPECT_EQ(t.total_exec(), 0);
  sim.wake_task(t);
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  EXPECT_EQ(t.total_exec(), msec(1));
}

TEST(SimEdge, DoubleWakeAndStaleTimerAreHarmless) {
  Simulator sim(presets::generic(1));
  struct Cli : TaskClient {
    int completions = 0;
    void on_work_complete(Simulator& s, Task& task) override {
      if (++completions == 1) {
        s.assign_work(task, 1'000.0);
        s.sleep_task_for(task, msec(10));
      } else {
        s.finish_task(task);
      }
    }
  } client;
  Task& t = sim.create_task({.name = "t", .client = &client});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0);
  sim.run_until(msec(2));  // Task is now sleeping with a timer at 11 ms.
  sim.wake_task(t);        // Early explicit wake.
  sim.wake_task(t);        // Double wake: no-op.
  sim.run_while_pending([&] { return t.state() == TaskState::Finished; }, sec(1));
  // The stale timer at 11 ms must not re-wake or crash anything.
  sim.run_until(msec(50));
  EXPECT_EQ(client.completions, 2);
}

TEST(SimEdge, SpeedBalancerSurvivesManagedTasksFinishing) {
  // Failure injection: the application dies midway; the balancer keeps
  // running its periodic passes over a shrinking (then empty) task set.
  Simulator sim(presets::generic(2), {}, 3);
  std::vector<Task*> tasks;
  for (int i = 0; i < 3; ++i) {
    Task& t = sim.create_task({.name = "t" + std::to_string(i)});
    sim.assign_work(t, 50'000.0 * (i + 1));
    sim.start_task(t);
    tasks.push_back(&t);
  }
  SpeedBalancer sb({}, tasks, workload::first_cores(2));
  sb.attach(sim);
  // Run well past the point where every task has finished; balancer events
  // keep firing against the empty set.
  sim.run_while_pending([] { return false; }, sec(2));
  for (Task* t : tasks) EXPECT_EQ(t->state(), TaskState::Finished);
}

TEST(SimEdge, AddManagedPinsToLeastLoadedCore) {
  Simulator sim(presets::generic(2));
  Hog hog;
  std::vector<Task*> tasks;
  for (int i = 0; i < 2; ++i) {
    Task& t = sim.create_task({.name = "t" + std::to_string(i), .client = &hog});
    sim.assign_work(t, 1e9);
    sim.start_task_on(t, 0, ~0ULL);
    tasks.push_back(&t);
  }
  SpeedBalanceParams params;
  params.automatic = false;
  SpeedBalancer sb(params, tasks, workload::first_cores(2));
  sb.attach(sim);  // Round-robin: one thread per core.
  // Dynamic parallelism: a thread spawned later joins the managed set.
  Task& late = sim.create_task({.name = "late", .client = &hog});
  sim.assign_work(late, 1e9);
  sim.start_task_on(late, 0, ~0ULL);
  // Make core 1 the lighter one first by checking loads are 2 vs 1.
  ASSERT_EQ(sim.core(0).queue().nr_running(), 2u);
  sb.add_managed(late);
  EXPECT_EQ(late.core(), 1);
  EXPECT_TRUE(late.hard_pinned());
}

TEST(SimEdge, AddManagedBeforeAttachThrows) {
  Simulator sim(presets::generic(2));
  Task& t = sim.create_task({.name = "t"});
  SpeedBalancer sb({}, {}, workload::first_cores(2));
  EXPECT_THROW(sb.add_managed(t), std::logic_error);
}

TEST(SimEdge, ZeroLengthTimedSleepStillWakes) {
  Simulator sim(presets::generic(1));
  struct Cli : TaskClient {
    int completions = 0;
    void on_work_complete(Simulator& s, Task& task) override {
      if (++completions == 1) {
        s.assign_work(task, 1'000.0);
        s.sleep_task_for(task, 0);  // Clamped to 1 us.
      } else {
        s.finish_task(task);
      }
    }
  } client;
  Task& t = sim.create_task({.name = "t", .client = &client});
  sim.assign_work(t, 1'000.0);
  sim.start_task_on(t, 0);
  ASSERT_TRUE(sim.run_while_pending(
      [&] { return t.state() == TaskState::Finished; }, sec(1)));
  EXPECT_EQ(client.completions, 2);
}

TEST(SimEdge, MigrationOfSleepingTaskOnlyRetargets) {
  Simulator sim(presets::generic(2));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 10'000.0);
  sim.start_task_on(t, 0, ~0ULL);
  sim.run_until(msec(1));
  sim.sleep_task(t);
  const SimTime before_exec = t.total_exec();
  sim.migrate(t, 1, MigrationCause::Affinity);
  EXPECT_EQ(t.state(), TaskState::Sleeping);  // No queue manipulation.
  EXPECT_EQ(t.core(), 1);
  // Counted and logged (the per-task counter must match the migration log),
  // but no warmup charged: the cache cost lands when it actually runs there.
  EXPECT_EQ(t.migrations(), 1);
  EXPECT_EQ(sim.metrics().migrations().back().cause, MigrationCause::Affinity);
  EXPECT_EQ(t.total_exec(), before_exec);
  sim.wake_task(t);
  EXPECT_EQ(t.core(), 1);
}

TEST(SimEdge, AffinityNarrowedWhileSleepingAppliesAtWake) {
  Simulator sim(presets::generic(4));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 10'000.0);
  sim.start_task_on(t, 0, ~0ULL);
  sim.run_until(msec(1));
  sim.sleep_task(t);
  sim.set_affinity(t, 0b1000, /*hard_pin=*/false);
  sim.wake_task(t);
  EXPECT_EQ(t.core(), 3);
}

TEST(SimEdge, AffinityOfANeverPlacedTaskMovesNothing) {
  // A created task is on no core until it starts or first wakes: setting
  // its affinity only narrows the mask, and the first wake places it there.
  Simulator sim(presets::generic(4));
  Task& t = sim.create_task({.name = "t"});
  sim.assign_work(t, 10'000.0);
  ASSERT_LT(t.core(), 0);
  EXPECT_TRUE(sim.set_affinity(t, 0b0100, /*hard_pin=*/true));
  EXPECT_LT(t.core(), 0);
  EXPECT_EQ(t.migrations(), 0);
  EXPECT_TRUE(sim.metrics().migrations().empty());
  EXPECT_EQ(t.allowed_mask(), 0b0100u);
  EXPECT_TRUE(t.hard_pinned());
  sim.wake_task(t);
  EXPECT_EQ(t.core(), 2);
  EXPECT_TRUE(sim.metrics().migrations().empty());
}

TEST(SimEdge, UnparkFromOfflineCoreCountsTheHotplugMove) {
  // A task parked on a core that then goes offline is moved at unpark. Like
  // the runnable task the offlining drains, the move is both logged and
  // counted: only WakePlacement is recorded but not counted.
  Simulator sim(presets::generic(3));
  Task& a = sim.create_task({.name = "a"});
  Task& b = sim.create_task({.name = "b"});
  Task& c = sim.create_task({.name = "c"});
  for (Task* t : {&a, &b, &c}) sim.assign_work(*t, 50'000.0);
  sim.start_task_on(a, 0);
  sim.start_task_on(b, 1);
  sim.start_task_on(c, 1);
  sim.run_until(msec(1));
  sim.park_task(b);
  sim.set_core_online(1, false);
  EXPECT_EQ(c.migrations(), 1);
  EXPECT_EQ(b.state(), TaskState::Parked);
  EXPECT_EQ(b.migrations(), 0);
  sim.unpark_task(b);
  EXPECT_NE(b.core(), 1);
  EXPECT_TRUE(sim.core_online(b.core()));
  int b_hotplug = 0;
  for (const MigrationRecord& m : sim.metrics().migrations())
    if (m.task == b.id()) {
      EXPECT_EQ(m.cause, MigrationCause::Hotplug);
      ++b_hotplug;
    }
  EXPECT_EQ(b_hotplug, 1);
  EXPECT_EQ(b.migrations(), 1);
  sim.run_while_pending([&] { return b.state() == TaskState::Finished; }, sec(1));
  EXPECT_EQ(b.state(), TaskState::Finished);
}

TEST(SimEdge, TiedStopTimersFireInArmOrderAfterAThirdCoreSwitches) {
  // Two SMT pairs, (0,1) and (2,3), on one saturated bus. Core 0 runs a
  // bandwidth-bound thread, then switches to a compute hog at its timeslice
  // end (20 ms). The stop and the start that follows are one speed change:
  // the bus demand drops, and one pass re-times every running core after
  // core 0's own arm, in core order. Threads `a` (core 2, its sibling busy
  // with a compute filler) and `b` (core 1) start 1 ms in, so their own
  // slices end after the switch, and run at equal speeds throughout: their
  // completions tie at one microsecond. Ties fire in arm order, so `b`, on
  // the lower core, completes first.
  MemoryModelParams mem;
  mem.node_bw_capacity = 1.0;
  mem.system_bw_capacity = 1.0;
  TopologySpec spec;
  spec.cores_per_socket = 2;
  spec.smt_per_core = 2;
  SimParams params;
  params.mem = mem;
  Simulator sim(Topology::build(spec), params);
  struct Recorder : TaskClient {
    std::vector<TaskId> order;
    std::vector<SimTime> at;
    const Task* hog = nullptr;
    bool hog_on_core0 = false;
    void on_work_complete(Simulator& s, Task& task) override {
      order.push_back(task.id());
      at.push_back(s.now());
      hog_on_core0 = s.core(0).running() == hog;
      s.finish_task(task);
    }
  } rec;
  Hog hog_client;
  auto spec_of = [](const char* name, TaskClient* client, double demand) {
    TaskSpec s;
    s.name = name;
    s.client = client;
    s.mem_intensity = demand > 0.0 ? 0.5 : 0.0;
    s.mem_bw_demand = demand;
    return s;
  };
  Task& stream = sim.create_task(spec_of("stream", &hog_client, 1.0));
  Task& compute = sim.create_task(spec_of("compute", &hog_client, 0.0));
  Task& filler = sim.create_task(spec_of("filler", &hog_client, 0.0));
  Task& a = sim.create_task(spec_of("a", &rec, 1.0));
  Task& b = sim.create_task(spec_of("b", &rec, 1.0));
  rec.hog = &compute;
  for (Task* t : {&stream, &compute, &filler}) sim.assign_work(*t, 1e9);
  for (Task* t : {&a, &b}) sim.assign_work(*t, 6'400.0);
  sim.start_task_on(stream, 0);
  sim.start_task_on(compute, 0);
  sim.run_until(msec(1));
  sim.start_task_on(filler, 3);
  sim.start_task_on(b, 1);
  sim.start_task_on(a, 2);
  sim.run_while_pending(
      [&] { return a.state() == TaskState::Finished &&
                   b.state() == TaskState::Finished; },
      sec(1));
  ASSERT_EQ(rec.order.size(), 2u);
  EXPECT_EQ(rec.at[0], rec.at[1]);
  EXPECT_TRUE(rec.hog_on_core0);
  EXPECT_EQ(rec.order, (std::vector<TaskId>{b.id(), a.id()}));
}

TEST(SimEdge, SameDemandRestartRetimesNoOtherCore) {
  // Threads `x` and `y`, with equal bus demand, share core 0, where a stop
  // comes every 10 ms once both are queued; `z` runs alone on core 1 with
  // 20 ms slices. The bus is saturated, so any dip in demand would change
  // z's speed. But each stop on core 0 and the start after it swap equal
  // demand at one instant: no core's speed changes, so z is flushed only
  // at its own stops, and the demand is never touched.
  MemoryModelParams mem;
  mem.node_bw_capacity = 0.5;
  mem.system_bw_capacity = 0.5;
  SimParams params;
  params.mem = mem;
  Simulator sim(presets::generic(2), params);
  Hog hog;
  auto bound = [&](const char* name) {
    TaskSpec s;
    s.name = name;
    s.client = &hog;
    s.mem_intensity = 0.5;
    s.mem_bw_demand = 0.7;
    Task& t = sim.create_task(s);
    sim.assign_work(t, 1e9);
    return &t;
  };
  Task* x = bound("x");
  Task* y = bound("y");
  Task* z = bound("z");
  sim.start_task_on(*x, 0);
  sim.start_task_on(*y, 0);
  sim.start_task_on(*z, 1);
  const double demand = sim.system_demand();
  const Task* on_core0 = sim.core(0).running();
  int switches = 0;
  while (sim.next_event_time() < msec(100) && sim.step()) {
    if (sim.core(0).running() != on_core0) {
      on_core0 = sim.core(0).running();
      ++switches;
    }
    ASSERT_EQ(sim.core(1).running(), z);
    EXPECT_EQ(z->total_exec() % msec(20), 0) << "z flushed at " << sim.now();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sim.system_demand()),
              std::bit_cast<std::uint64_t>(demand))
        << "at " << sim.now();
  }
  EXPECT_GE(switches, 5);
  EXPECT_EQ(z->total_exec(), msec(80));
}

}  // namespace
}  // namespace speedbal
