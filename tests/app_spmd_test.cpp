#include "app/spmd.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal {
namespace {

TEST(SpmdApp, OneThreadOneCoreRunsExactWork) {
  Simulator sim(presets::generic(1));
  SpmdApp app(sim, workload::uniform_app(1, 3, 10'000.0));
  app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(1));
  ASSERT_TRUE(sim.run_while_pending([&] { return app.finished(); }, sec(1)));
  EXPECT_EQ(app.elapsed(), msec(30));
  EXPECT_EQ(app.phase_times().size(), 3u);
  for (SimTime pt : app.phase_times()) EXPECT_EQ(pt, msec(10));
}

TEST(SpmdApp, OnePerCoreScalesPerfectly) {
  Simulator sim(presets::generic(4));
  SpmdApp app(sim, workload::uniform_app(4, 2, 50'000.0));
  app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(4));
  ASSERT_TRUE(sim.run_while_pending([&] { return app.finished(); }, sec(1)));
  // 4 equal threads on 4 cores: wall time equals one thread's work.
  EXPECT_EQ(app.elapsed(), msec(100));
}

TEST(SpmdApp, BarrierHoldsFastThreadsForSlowOnes) {
  // 2 threads on 2 cores but one core is half speed: phases complete at the
  // slow thread's pace, and the fast thread waits at each barrier.
  Simulator sim(presets::asymmetric(2, 1, 2.0));  // Core 0 twice as fast.
  SpmdApp app(sim, workload::uniform_app(2, 4, 100'000.0));
  app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(2));
  ASSERT_TRUE(sim.run_while_pending([&] { return app.finished(); }, sec(5)));
  // Slow core takes 100 ms per phase; fast one 50 ms then waits.
  EXPECT_EQ(app.elapsed(), msec(400));
}

TEST(SpmdApp, NoThreadEntersNextPhaseEarly) {
  // With a straggler, total exec of every thread stays phase-locked: after
  // completion each thread executed exactly its own work (plus wait time
  // for spinners, so use a sleeping barrier to observe pure work).
  Simulator sim(presets::generic(2));
  SpmdAppSpec spec = workload::uniform_app(
      3, 5, 20'000.0, {.policy = WaitPolicy::Sleep, .block_time = 0});
  SpmdApp app(sim, spec);
  app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(2));
  ASSERT_TRUE(sim.run_while_pending([&] { return app.finished(); }, sec(5)));
  for (Task* t : app.threads()) {
    // 5 phases x 20 ms of pure work; wake placements add only microseconds
    // of cache-refill warmup.
    EXPECT_GE(t->total_exec(), msec(100));
    EXPECT_LT(t->total_exec(), msec(101));
  }
}

TEST(SpmdApp, WorkJitterPerturbsButConserves) {
  Simulator sim(presets::generic(1));
  SpmdAppSpec spec = workload::uniform_app(1, 100, 1'000.0);
  spec.work_jitter = 0.3;
  SpmdApp app(sim, spec);
  app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(1));
  ASSERT_TRUE(sim.run_while_pending([&] { return app.finished(); }, sec(5)));
  // Mean-zero jitter: total within 10% of nominal, but not exactly equal.
  EXPECT_NEAR(to_msec(app.elapsed()), 100.0, 10.0);
  EXPECT_NE(app.elapsed(), msec(100));
}

TEST(SpmdApp, ThreadSkewScalesWorkButConservesTotal) {
  // skew = 1: thread 0 carries 0.5x, the last thread 1.5x, mean unchanged.
  Simulator sim(presets::generic(4));
  SpmdAppSpec spec = workload::uniform_app(
      4, 2, 50'000.0, {.policy = WaitPolicy::Sleep, .block_time = 0});
  spec.thread_skew = 1.0;
  SpmdApp app(sim, spec);
  app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(4));
  ASSERT_TRUE(sim.run_while_pending([&] { return app.finished(); }, sec(5)));
  // One thread per core: the makespan is the heaviest thread: 1.5x.
  EXPECT_EQ(app.elapsed(), msec(150));
  // Blocking barrier: exec equals assigned work exactly per thread.
  EXPECT_EQ(app.threads()[0]->total_exec(), msec(50));
  EXPECT_EQ(app.threads()[3]->total_exec(), msec(150));
  SimTime total = 0;
  for (const Task* t : app.threads()) total += t->total_exec();
  // 4 threads x 2 phases x 50 ms mean (fractional work rounds up to the
  // microsecond event grid).
  EXPECT_NEAR(static_cast<double>(total), static_cast<double>(msec(400)), 10.0);
}

TEST(SpmdApp, LaunchValidation) {
  Simulator sim(presets::generic(2));
  SpmdApp app(sim, workload::uniform_app(2, 1, 1'000.0));
  EXPECT_THROW(app.launch(SpmdApp::Placement::RoundRobin, {}), std::invalid_argument);
  app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(2));
  EXPECT_THROW(app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(2)),
               std::logic_error);
  EXPECT_THROW(SpmdApp(sim, workload::uniform_app(0, 1, 1.0)), std::invalid_argument);
}

TEST(SpmdApp, ThreadsRespectTasksetMask) {
  Simulator sim(presets::generic(4));
  SpmdApp app(sim, workload::uniform_app(6, 3, 5'000.0));
  app.launch(SpmdApp::Placement::LinuxFork, workload::first_cores(2));
  ASSERT_TRUE(sim.run_while_pending([&] { return app.finished(); }, sec(5)));
  for (Task* t : app.threads()) {
    EXPECT_LT(t->core(), 2);
    const auto& per_core = sim.metrics().exec_by_core(t->id());
    EXPECT_EQ(per_core[2], 0);
    EXPECT_EQ(per_core[3], 0);
  }
}

TEST(SpmdApp, CompletionTimeUnsetUntilDone) {
  Simulator sim(presets::generic(1));
  SpmdApp app(sim, workload::uniform_app(1, 1, 50'000.0));
  app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(1));
  EXPECT_EQ(app.completion_time(), kNever);
  EXPECT_EQ(app.elapsed(), kNever);
  EXPECT_FALSE(app.finished());
  sim.run_while_pending([&] { return app.finished(); }, sec(1));
  EXPECT_NE(app.completion_time(), kNever);
}

TEST(SpmdApp, AllThreadsFinishedAfterCompletion) {
  Simulator sim(presets::generic(2));
  SpmdApp app(sim, workload::uniform_app(5, 2, 2'000.0));
  app.launch(SpmdApp::Placement::LinuxFork, workload::first_cores(2));
  ASSERT_TRUE(sim.run_while_pending([&] { return app.finished(); }, sec(5)));
  for (Task* t : app.threads()) EXPECT_EQ(t->state(), TaskState::Finished);
}

TEST(SpmdApp, TwoAppsCoexist) {
  Simulator sim(presets::generic(4));
  SpmdApp a(sim, workload::uniform_app(4, 2, 10'000.0));
  SpmdApp b(sim, workload::uniform_app(4, 2, 10'000.0));
  a.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(4));
  b.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(4));
  ASSERT_TRUE(sim.run_while_pending(
      [&] { return a.finished() && b.finished(); }, sec(5)));
  // Two equal apps sharing 4 cores: the pair needs ~40 ms of wall time
  // (2x solo); CFS may interleave their phases in lockstep, so individual
  // apps finish anywhere between 30 and 45 ms.
  const double last = std::max(to_msec(a.elapsed()), to_msec(b.elapsed()));
  EXPECT_NEAR(last, 40.0, 5.0);
  EXPECT_GE(to_msec(a.elapsed()), 30.0);
  EXPECT_GE(to_msec(b.elapsed()), 30.0);
}

}  // namespace
}  // namespace speedbal
