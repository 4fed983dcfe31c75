#include "sim/cfs_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace speedbal {
namespace {

TaskStore& shared_store() {
  static TaskStore store;
  return store;
}

std::unique_ptr<Task> make_task(TaskId id, double weight = 1.0) {
  TaskSpec spec;
  spec.name = "t" + std::to_string(id);
  spec.weight = weight;
  auto t = std::make_unique<Task>(id, spec, shared_store());
  // Tests reuse small ids; scrub the store slot so state does not leak
  // from one test case into the next.
  shared_store().vruntime[static_cast<std::size_t>(id)] = 0;
  shared_store().wait_mode[static_cast<std::size_t>(id)] = WaitMode::None;
  return t;
}

TEST(CfsQueue, PickNextIsMinVruntime) {
  CfsQueue q;
  auto a = make_task(1);
  auto b = make_task(2);
  q.enqueue(*a, false);
  q.enqueue(*b, false);
  // Equal vruntime: lowest id wins the tiebreak.
  EXPECT_EQ(q.pick_next(), a.get());
  q.charge(*a, msec(10));
  EXPECT_EQ(q.pick_next(), b.get());
}

TEST(CfsQueue, NrRunningAndLoadTrackMembership) {
  CfsQueue q;
  auto a = make_task(1);
  auto b = make_task(2, 2.0);
  EXPECT_EQ(q.nr_running(), 0u);
  q.enqueue(*a, false);
  q.enqueue(*b, false);
  EXPECT_EQ(q.nr_running(), 2u);
  EXPECT_DOUBLE_EQ(q.load(), 3.0);
  q.dequeue(*a);
  EXPECT_EQ(q.nr_running(), 1u);
  EXPECT_DOUBLE_EQ(q.load(), 2.0);
}

TEST(CfsQueue, TimesliceDividesLatency) {
  CfsParams p;
  p.sched_latency = msec(20);
  p.min_granularity = msec(4);
  CfsQueue q(p);
  auto a = make_task(1);
  auto b = make_task(2);
  EXPECT_EQ(q.timeslice(), msec(20));  // Empty queue: full latency.
  q.enqueue(*a, false);
  EXPECT_EQ(q.timeslice(), msec(20));
  q.enqueue(*b, false);
  EXPECT_EQ(q.timeslice(), msec(10));
}

TEST(CfsQueue, TimesliceFloorsAtMinGranularity) {
  CfsParams p;
  p.sched_latency = msec(20);
  p.min_granularity = msec(4);
  CfsQueue q(p);
  std::vector<std::unique_ptr<Task>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(make_task(i));
    q.enqueue(*tasks.back(), false);
  }
  EXPECT_EQ(q.timeslice(), msec(4));  // 20/10 = 2ms < 4ms floor.
}

TEST(CfsQueue, RequeueBehindPutsTaskLast) {
  CfsQueue q;
  auto a = make_task(1);
  auto b = make_task(2);
  auto c = make_task(3);
  q.enqueue(*a, false);
  q.enqueue(*b, false);
  q.enqueue(*c, false);
  q.charge(*b, msec(1));
  q.charge(*c, msec(2));
  // a has min vruntime; yield it behind everyone.
  ASSERT_EQ(q.pick_next(), a.get());
  q.requeue_behind(*a);
  EXPECT_EQ(q.pick_next(), b.get());
  EXPECT_GT(a->vruntime(), c->vruntime());
}

TEST(CfsQueue, ChargeIsWeightScaled) {
  CfsQueue q;
  auto heavy = make_task(1, 2.0);
  auto light = make_task(2, 1.0);
  q.enqueue(*heavy, false);
  q.enqueue(*light, false);
  q.charge(*heavy, msec(10));
  q.charge(*light, msec(10));
  // The heavy task's virtual clock advances half as fast.
  EXPECT_EQ(heavy->vruntime() * 2, light->vruntime());
}

TEST(CfsQueue, VruntimeIsQueueRelativeAcrossMigration) {
  CfsQueue q1;
  CfsQueue q2;
  auto a = make_task(1);
  auto b = make_task(2);
  auto c = make_task(3);
  q1.enqueue(*a, false);
  q1.enqueue(*b, false);
  // Advance q1's clock far ahead.
  q1.charge(*a, sec(100));
  q1.charge(*b, sec(100));
  q1.dequeue(*a);

  q2.enqueue(*c, false);
  q2.charge(*c, msec(1));
  q2.enqueue(*a, false);
  // The migrated task must not be unfairly ahead or behind on q2.
  const SimTime gap = a->vruntime() - c->vruntime();
  EXPECT_LT(std::abs(gap), sec(1));
}

TEST(CfsQueue, SleeperBonusPlacesNearMinVruntime) {
  CfsParams p;
  CfsQueue q(p);
  auto a = make_task(1);
  auto sleeper = make_task(2);
  q.enqueue(*a, false);
  q.charge(*a, sec(10));
  q.enqueue(*sleeper, true);
  // Woken task runs soon (at or before the long-running task)...
  EXPECT_EQ(q.pick_next(), sleeper.get());
  // ...but is not placed unboundedly far behind min_vruntime.
  EXPECT_GE(sleeper->vruntime(), q.min_vruntime() - p.sched_latency);
}

TEST(CfsQueue, ShouldPreemptUsesWakeupGranularity) {
  CfsParams p;
  p.wakeup_granularity = msec(1);
  CfsQueue q(p);
  auto running = make_task(1);
  auto woken = make_task(2);
  q.enqueue(*running, false);
  q.charge(*running, msec(10));
  q.enqueue(*woken, true);
  EXPECT_TRUE(q.should_preempt(*woken, *running));
  // A woken task barely behind does not preempt.
  q.charge(*woken, msec(10));
  EXPECT_FALSE(q.should_preempt(*woken, *running));
}

TEST(CfsQueue, MinVruntimeMonotonic) {
  CfsQueue q;
  auto a = make_task(1);
  auto b = make_task(2);
  q.enqueue(*a, false);
  q.enqueue(*b, false);
  SimTime prev = q.min_vruntime();
  for (int i = 0; i < 100; ++i) {
    q.charge(*q.pick_next(), msec(5));
    EXPECT_GE(q.min_vruntime(), prev);
    prev = q.min_vruntime();
  }
}

TEST(CfsQueue, LongRunFairnessTwoTasks) {
  // Dispatch-loop emulation: repeatedly run the leftmost task for its
  // timeslice; both tasks must receive equal CPU over time.
  CfsQueue q;
  auto a = make_task(1);
  auto b = make_task(2);
  q.enqueue(*a, false);
  q.enqueue(*b, false);
  SimTime exec_a = 0;
  SimTime exec_b = 0;
  for (int i = 0; i < 1000; ++i) {
    Task* t = q.pick_next();
    const SimTime slice = q.timeslice();
    q.charge(*t, slice);
    (t == a.get() ? exec_a : exec_b) += slice;
  }
  EXPECT_NEAR(static_cast<double>(exec_a) / static_cast<double>(exec_b), 1.0, 0.05);
}

TEST(CfsQueue, HasNonWaiting) {
  CfsQueue q;
  auto a = make_task(1);
  q.enqueue(*a, false);
  EXPECT_TRUE(q.has_non_waiting());
}

TEST(CfsQueue, TasksSnapshotInVruntimeOrder) {
  CfsQueue q;
  auto a = make_task(1);
  auto b = make_task(2);
  q.enqueue(*a, false);
  q.enqueue(*b, false);
  q.charge(*a, msec(5));
  const auto tasks = q.tasks();
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0], b.get());
  EXPECT_EQ(tasks[1], a.get());
}

TEST(CfsQueue, ChargeKeepsVruntimeIdOrderUnderRandomCharges) {
  // Charges at the front, middle and back of a queue, with durations on a
  // coarse grid so vruntimes collide (ties broken by id), a huge weight
  // whose charge rounds to 0, and a charge of a task that is not queued.
  // After every charge the queue must equal a reference sort by
  // (vruntime, id), and min_vruntime must follow the leftmost task.
  const auto key_less = [](const Task* a, const Task* b) {
    return a->vruntime() != b->vruntime() ? a->vruntime() < b->vruntime()
                                          : a->id() < b->id();
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    CfsQueue q;
    std::vector<std::unique_ptr<Task>> owned;
    for (TaskId id = 1; id <= 9; ++id) {
      const double w = id == 4 ? 1e12 : (id % 3 == 0 ? 2.0 : 1.0);
      owned.push_back(make_task(id, w));
      q.enqueue(*owned.back(), false);
    }
    auto outsider = make_task(20);
    SimTime want_min = q.min_vruntime();
    int rounded_to_zero = 0;
    for (int step = 0; step < 400; ++step) {
      const SimTime dur = usec(500) * rng.uniform_int(0, 4);
      const std::vector<Task*> before = q.tasks();
      const int where = static_cast<int>(rng.uniform_int(0, 4));
      if (where == 4) {
        const SimTime v = outsider->vruntime();
        q.charge(*outsider, dur);
        EXPECT_EQ(outsider->vruntime(), v + dur);
        EXPECT_EQ(q.tasks(), before);
        EXPECT_EQ(q.min_vruntime(), want_min);
        continue;
      }
      const std::size_t n = before.size();
      const std::size_t i = where == 0   ? 0
                            : where == 1 ? n - 1
                                         : 1 + rng.uniform_u64(n - 2);
      Task* t = before[i];
      const SimTime v = t->vruntime();
      q.charge(*t, dur);
      EXPECT_EQ(t->vruntime(),
                v + static_cast<SimTime>(std::llround(
                        static_cast<double>(dur) / t->spec().weight)));
      if (dur > 0 && t->vruntime() == v) ++rounded_to_zero;
      std::vector<Task*> want = before;
      std::sort(want.begin(), want.end(), key_less);
      ASSERT_EQ(q.tasks(), want) << "seed " << seed << " step " << step;
      want_min = std::max(want_min, want.front()->vruntime());
      EXPECT_EQ(q.min_vruntime(), want_min);
      // Now and then a yield moves a task to the right edge without
      // advancing min_vruntime; the next charge must catch up.
      if (step % 7 == 3) q.requeue_behind(*q.pick_next());
    }
    EXPECT_GT(rounded_to_zero, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace speedbal
