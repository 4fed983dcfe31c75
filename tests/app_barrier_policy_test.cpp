// Barrier wait-policy semantics: run-queue membership and CPU consumption
// of waiting threads are exactly what differentiates the paper's
// LOAD-SLEEP / LOAD-YIELD / polling configurations (Sections 3, 6.2).

#include <gtest/gtest.h>

#include "app/spmd.hpp"
#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal {
namespace {

/// Two threads on two cores; thread 1's core is half speed, so thread 0
/// waits at the barrier for ~half of each phase. Returns the app after
/// running to completion.
struct WaitProbe {
  Simulator sim;
  SpmdApp app;

  WaitProbe(BarrierConfig barrier, int phases = 2, double work_us = 100'000.0)
      : sim(presets::asymmetric(2, 1, 2.0)),
        app(sim, [&] {
          SpmdAppSpec spec = workload::uniform_app(2, phases, work_us, barrier);
          return spec;
        }()) {
    app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(2));
  }

  /// Run until the fast thread is waiting mid-phase (slow one still busy).
  void run_to_mid_wait() { sim.run_until(msec(75)); }

  Task* fast_thread() { return app.threads()[0]; }
};

TEST(BarrierPolicy, SpinWaiterStaysOnQueueAndBurnsCpu) {
  WaitProbe p(workload::omp_polling_barrier());
  p.run_to_mid_wait();
  EXPECT_EQ(p.fast_thread()->wait_mode(), WaitMode::Spin);
  EXPECT_NE(p.fast_thread()->state(), TaskState::Sleeping);
  EXPECT_EQ(p.sim.core(0).queue().nr_running(), 1u);  // Still counted.
  p.sim.sync_all_accounting();
  // It has been spinning since 50 ms: exec equals wall clock.
  EXPECT_EQ(p.fast_thread()->total_exec(), msec(75));
}

TEST(BarrierPolicy, YieldWaiterStaysOnQueueButYieldsCpu) {
  WaitProbe p(workload::upc_yield_barrier());
  p.run_to_mid_wait();
  EXPECT_EQ(p.fast_thread()->wait_mode(), WaitMode::Yield);
  // The paper's point: a yielding thread remains on the run queue, so the
  // queue-length balancer counts it as load.
  EXPECT_EQ(p.sim.core(0).queue().nr_running(), 1u);
}

TEST(BarrierPolicy, SleepBarrierBlocksAfterBlockTime) {
  BarrierConfig barrier = workload::intel_omp_default_barrier();
  barrier.block_time = msec(10);
  WaitProbe p(barrier);
  // Fast thread arrives at 50 ms, spins until 60 ms, then sleeps.
  p.sim.run_until(msec(55));
  EXPECT_EQ(p.fast_thread()->wait_mode(), WaitMode::Spin);
  p.sim.run_until(msec(75));
  EXPECT_EQ(p.fast_thread()->state(), TaskState::Sleeping);
  // Removed from the run queue: the balancer no longer counts it.
  EXPECT_EQ(p.sim.core(0).queue().nr_running(), 0u);
  // The release must wake it and the app completes.
  ASSERT_TRUE(p.sim.run_while_pending([&] { return p.app.finished(); }, sec(5)));
}

TEST(BarrierPolicy, ImmediateBlockNeverSpins) {
  WaitProbe p(BarrierConfig{.policy = WaitPolicy::Sleep, .block_time = 0});
  p.run_to_mid_wait();
  EXPECT_EQ(p.fast_thread()->state(), TaskState::Sleeping);
  p.sim.sync_all_accounting();
  // Only the 50 ms of real work was executed; no busy waiting at all.
  EXPECT_EQ(p.fast_thread()->total_exec(), msec(50));
}

TEST(BarrierPolicy, SleepPollAlternatesSleepAndCheck) {
  BarrierConfig barrier = workload::usleep_barrier();
  WaitProbe p(barrier);
  p.run_to_mid_wait();
  // At an arbitrary instant the poller is overwhelmingly likely asleep
  // (1 ms sleeps vs 2 us checks); its exec is bounded near the real work.
  p.sim.sync_all_accounting();
  const SimTime exec = p.fast_thread()->total_exec();
  EXPECT_GE(exec, msec(50));
  EXPECT_LT(exec, msec(51));  // 25 ms of waiting cost < 1 ms of CPU.
  ASSERT_TRUE(p.sim.run_while_pending([&] { return p.app.finished(); }, sec(5)));
}

TEST(BarrierPolicy, AllPoliciesProduceSameResultOnDedicatedRun) {
  // Semantics check: with one thread per core and equal speeds, the barrier
  // implementation must not change the answer (only the waiting cost, which
  // is zero when everyone arrives together).
  for (WaitPolicy policy : {WaitPolicy::Spin, WaitPolicy::Yield,
                            WaitPolicy::Sleep, WaitPolicy::SleepPoll}) {
    BarrierConfig barrier;
    barrier.policy = policy;
    Simulator sim(presets::generic(2));
    SpmdApp app(sim, workload::uniform_app(2, 3, 10'000.0, barrier));
    app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(2));
    ASSERT_TRUE(sim.run_while_pending([&] { return app.finished(); }, sec(5)));
    // SleepPoll adds a few microseconds of poll work per barrier; everything
    // else is exact.
    EXPECT_NEAR(to_msec(app.elapsed()), 30.0, 0.1) << "policy " << to_string(policy);
  }
}

TEST(BarrierPolicy, SpinnersReleasePromptly) {
  // When the last thread arrives, spinning threads start the next phase
  // immediately (no wake latency).
  WaitProbe p(workload::omp_polling_barrier(), /*phases=*/3);
  ASSERT_TRUE(p.sim.run_while_pending([&] { return p.app.finished(); }, sec(5)));
  // Slow thread paces every phase at exactly 100 ms.
  EXPECT_EQ(p.app.elapsed(), msec(300));
}

TEST(BarrierPolicy, SleepersWakeOnRelease) {
  const BarrierConfig barrier{.policy = WaitPolicy::Sleep, .block_time = 0};
  WaitProbe p(barrier, /*phases=*/3);
  ASSERT_TRUE(p.sim.run_while_pending([&] { return p.app.finished(); }, sec(5)));
  // Wake-up latency is modeled as zero (futex wake): same completion time.
  EXPECT_EQ(p.app.elapsed(), msec(300));
}

TEST(BarrierPolicy, Names) {
  EXPECT_STREQ(to_string(WaitPolicy::Spin), "spin");
  EXPECT_STREQ(to_string(WaitPolicy::Yield), "yield");
  EXPECT_STREQ(to_string(WaitPolicy::Sleep), "sleep");
  EXPECT_STREQ(to_string(WaitPolicy::SleepPoll), "sleep-poll");
}

}  // namespace
}  // namespace speedbal
