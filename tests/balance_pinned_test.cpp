// The round-robin pin (balance/balancer.hpp) as the paper's PINNED
// configuration: placement, and no kernel balancer moving a pinned task.

#include <gtest/gtest.h>

#include "balance/balancer.hpp"
#include "balance/linux_load.hpp"
#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal {
namespace {

struct Hog : TaskClient {
  void on_work_complete(Simulator& sim, Task& task) override {
    sim.assign_work(task, 1e9);
  }
};

TEST(Pinned, RoundRobinPlacement) {
  Simulator sim(presets::generic(4));
  Hog hog;
  std::vector<Task*> tasks;
  for (int i = 0; i < 6; ++i) {
    Task& t = sim.create_task({.name = "t" + std::to_string(i), .client = &hog});
    sim.assign_work(t, 1e9);
    sim.start_task(t);
    tasks.push_back(&t);
  }
  pin_round_robin(sim, tasks, workload::first_cores(3), 0,
                  MigrationCause::Affinity);
  EXPECT_EQ(tasks[0]->core(), 0);
  EXPECT_EQ(tasks[1]->core(), 1);
  EXPECT_EQ(tasks[2]->core(), 2);
  EXPECT_EQ(tasks[3]->core(), 0);
  EXPECT_EQ(tasks[4]->core(), 1);
  EXPECT_EQ(tasks[5]->core(), 2);
}

TEST(Pinned, RoundRobinContinuesFromTheCursor) {
  // A pool opened later continues the rotation where the last one stopped.
  Simulator sim(presets::generic(4));
  Hog hog;
  std::vector<Task*> tasks;
  for (int i = 0; i < 3; ++i) {
    Task& t = sim.create_task({.name = "t" + std::to_string(i), .client = &hog});
    sim.assign_work(t, 1e9);
    sim.start_task(t);
    tasks.push_back(&t);
  }
  pin_round_robin(sim, tasks, {1, 3}, /*first=*/3, MigrationCause::Affinity);
  EXPECT_EQ(tasks[0]->core(), 3);
  EXPECT_EQ(tasks[1]->core(), 1);
  EXPECT_EQ(tasks[2]->core(), 3);
  for (Task* t : tasks) EXPECT_TRUE(t->hard_pinned());
}

TEST(Pinned, TasksNeverMoveEvenUnderLinuxBalancing) {
  Simulator sim(presets::generic(4));
  LinuxLoadBalancer lb;
  lb.attach(sim);
  Hog hog;
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    Task& t = sim.create_task({.name = "t" + std::to_string(i), .client = &hog});
    sim.assign_work(t, 1e9);
    sim.start_task(t);
    tasks.push_back(&t);
  }
  // Deliberately imbalanced pinning: everything on core 0.
  pin_round_robin(sim, tasks, {0}, 0, MigrationCause::Affinity);
  sim.run_while_pending([] { return false; }, sec(2));
  for (Task* t : tasks) EXPECT_EQ(t->core(), 0);
  // The kernel balancer observed the imbalance but could move nothing.
  EXPECT_EQ(sim.metrics().migration_count(MigrationCause::LinuxPeriodic), 0);
  EXPECT_EQ(sim.metrics().migration_count(MigrationCause::LinuxNewIdle), 0);
  EXPECT_EQ(sim.metrics().migration_count(MigrationCause::LinuxPush), 0);
}

}  // namespace
}  // namespace speedbal
