// Parameterized property suites over the whole stack: conservation laws,
// the Lemma 1 guarantee, and cross-policy invariants. Scenario construction
// is sourced from the fuzz harness (check::FuzzScenario and the shared
// scenario->config lowering), so these suites and `fuzzsim` exercise the
// stack through the same front door.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <sstream>
#include <tuple>

#include "balance/speed.hpp"
#include "check/config.hpp"
#include "check/episode.hpp"
#include "check/oracle.hpp"
#include "check/scenario.hpp"
#include "model/analytic.hpp"
#include "serve/scenarios.hpp"
#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal {
namespace {

// --- Work conservation across policies --------------------------------------

/// Base scenario for the conservation sweeps: a blocking barrier so waiting
/// threads accrue no exec — total exec must then equal the assigned work
/// plus bounded migration warmup.
check::FuzzScenario conservation_scenario(Policy policy, int cores) {
  check::FuzzScenario sc;
  sc.seed = 7;
  sc.topo = "generic4";
  sc.policy = policy;
  sc.cores = cores;
  sc.threads = 6;
  sc.phases = 2;
  sc.work_per_phase_us = 20000.0;
  sc.work_jitter = 0.0;
  sc.barrier = WaitPolicy::Sleep;
  sc.validate();
  return sc;
}

/// Run the scenario through the shared lowering and assert every thread
/// executed its assigned work, within the bounded warmup overhead.
void expect_work_conserved(const check::FuzzScenario& sc) {
  ExperimentConfig cfg = check::spmd_experiment(sc);
  cfg.app.barrier.block_time = 0;
  const double per_thread_work = cfg.app.work_per_phase_us * cfg.app.phases;
  bool harvested = false;
  cfg.on_run_end = [&](Simulator&, SpmdApp& app, int) {
    harvested = true;
    for (Task* t : app.threads()) {
      const double exec_us = static_cast<double>(t->total_exec());
      EXPECT_GE(exec_us, per_thread_work - 1.0) << t->name();
      // Warmup overhead is bounded: per migration at most fixed + llc refill.
      const double max_overhead =
          (t->migrations() + 4.0) * (5.0 + 4096.0 * 0.5) + 1000.0;
      EXPECT_LE(exec_us, per_thread_work + max_overhead) << t->name();
    }
  };
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.runs.at(0).completed);
  ASSERT_TRUE(harvested);
}

class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<Policy, int>> {};

TEST_P(ConservationSweep, ExecMatchesAssignedWork) {
  const auto [policy, cores] = GetParam();
  expect_work_conserved(conservation_scenario(policy, cores));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ConservationSweep,
    ::testing::Combine(::testing::Values(Policy::Pinned, Policy::Load,
                                         Policy::Speed),
                       ::testing::Values(2, 3, 4)));

// --- Conservation & safety under perturbations -------------------------------

class PerturbationSweep : public ::testing::TestWithParam<Policy> {};

TEST_P(PerturbationSweep, WorkConservedAndInvariantsHoldUnderPerturbations) {
  // Under a timeline of hotplug and cpu-hog perturbations (no DVFS: clock
  // changes alter the exec-time cost of fixed work by design), every policy
  // still executes exactly the assigned work (plus bounded migration
  // warmup), and the full episode invariant checker — which probes task
  // placement every 5 ms — sees no violation: in particular no task is ever
  // observed on an offline core.
  check::FuzzScenario sc = conservation_scenario(GetParam(), 3);
  sc.phases = 4;
  sc.work_per_phase_us = 100000.0;  // Long enough to span the timeline.
  sc.perturb = perturb::PerturbTimeline::parse_specs(
                   "at=30ms offline core=1; at=60ms hog-start core=0; "
                   "at=90ms spike core=2 work=20ms; at=150ms online core=1; "
                   "at=250ms hog-stop core=0")
                   .events();
  sc.validate();

  const check::EpisodeResult episode = check::run_episode(sc);
  EXPECT_TRUE(episode.violations.empty())
      << check::format_violations(episode.violations);
  EXPECT_TRUE(episode.completed);

  expect_work_conserved(sc);
}

INSTANTIATE_TEST_SUITE_P(Policies, PerturbationSweep,
                         ::testing::Values(Policy::Pinned, Policy::Load,
                                           Policy::Speed));

// --- Generated scenarios through the accounting cross-checks -----------------

TEST(Properties, GeneratedSpmdScenariosKeepPerTaskAccountingExact) {
  // Scenarios drawn from the fuzz generator (forced onto the SPEED policy so
  // migrations actually happen), with per-task accounting asserted directly:
  // each task's migration counter equals its entries in the global log
  // (excluding wake placements, recorded but not counted), and its per-core
  // exec vector sums exactly to its total exec.
  int spmd_seen = 0;
  for (std::uint64_t seed = 300; spmd_seen < 4; ++seed) {
    check::FuzzScenario sc = check::generate(seed);
    if (sc.mode != check::Mode::Spmd) continue;
    ++spmd_seen;
    sc.policy = Policy::Speed;

    ExperimentConfig cfg = check::spmd_experiment(sc);
    bool harvested = false;
    cfg.on_run_end = [&](Simulator& sim, SpmdApp& app, int) {
      harvested = true;
      sim.sync_all_accounting();
      for (Task* t : app.threads()) {
        int logged = 0;
        for (const auto& m : sim.metrics().migrations())
          if (m.task == t->id() && m.cause != MigrationCause::WakePlacement)
            ++logged;
        EXPECT_EQ(logged, t->migrations()) << "seed " << seed << " " << t->name();

        const auto& per_core = sim.metrics().exec_by_core(t->id());
        const SimTime sum =
            std::accumulate(per_core.begin(), per_core.end(), SimTime{0});
        EXPECT_EQ(sum, t->total_exec()) << "seed " << seed << " " << t->name();
      }
    };
    const ExperimentResult res = run_experiment(cfg);
    ASSERT_TRUE(res.runs.at(0).completed) << "seed " << seed;
    ASSERT_TRUE(harvested) << "seed " << seed;
  }
}

// --- Lemma 1: every thread runs on a fast core -------------------------------

/// Simulator + app + attached speed balancer, kept alive together so tests
/// can interrogate metrics after the run (shared by the Lemma 1 and
/// rotation suites), and the run segments its recorder exported.
struct SpeedRig {
  std::unique_ptr<obs::RunRecorder> rec;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<SpmdApp> app;
  std::unique_ptr<SpeedBalancer> sb;
  bool finished = false;
  std::vector<obs::RunSegmentRecord> segments;
};

SpeedRig run_speed_app(int cores, int threads, double work_us,
                       std::uint64_t seed) {
  SpeedRig rig;
  rig.rec = std::make_unique<obs::RunRecorder>();
  rig.sim = std::make_unique<Simulator>(presets::generic(cores),
                                        SimParams{}, seed);
  rig.sim->set_recorder(rig.rec.get());
  SpmdAppSpec spec = workload::uniform_app(threads, 1, work_us);
  rig.app = std::make_unique<SpmdApp>(*rig.sim, spec);
  rig.app->launch(SpmdApp::Placement::LinuxFork, workload::first_cores(cores));
  rig.sb = std::make_unique<SpeedBalancer>(SpeedBalanceParams{},
                                           rig.app->threads(),
                                           workload::first_cores(cores));
  rig.sb->attach(*rig.sim);
  rig.finished = rig.sim->run_while_pending(
      [&rig] { return rig.app->finished(); }, sec(600));
  export_run_to_recorder(rig.sim->metrics(), *rig.rec);
  rig.segments = rig.rec->run_segments().snapshot();
  return rig;
}

class Lemma1Sweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Lemma1Sweep, EveryThreadGetsFastCoreTime) {
  // Under speed balancing, no thread is left at the slow-queue rate for the
  // whole run: every thread's average speed must exceed 1/(T+1), which is
  // the necessity condition Lemma 1 establishes (run long enough for at
  // least lemma1_steps balance intervals).
  const auto [threads, cores] = GetParam();
  const model::SpmdShape shape{threads, cores};
  if (shape.balanced()) GTEST_SKIP() << "balanced shape: nothing to prove";

  const SpeedRig rig = run_speed_app(
      cores, threads, 4e6, static_cast<std::uint64_t>(threads * 31 + cores));
  ASSERT_TRUE(rig.finished);

  // Program speed = per-thread work / wall time of the last finisher. If
  // any thread had been left at the slow-queue rate for the whole run the
  // program speed would be exactly 1/(T+1); beating it requires the Lemma 1
  // rotation to have given every thread fast-core time.
  const double wall = to_sec(rig.app->elapsed());
  const double slow_rate = 1.0 / (shape.threads_per_fast_core() + 1);
  const double program_speed = 4.0 / wall;
  EXPECT_GT(program_speed, slow_rate * 1.02);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Lemma1Sweep,
                         ::testing::Values(std::tuple{3, 2}, std::tuple{5, 2},
                                           std::tuple{5, 3}, std::tuple{7, 3},
                                           std::tuple{9, 4}, std::tuple{13, 4},
                                           std::tuple{11, 5}));

// --- Analytic model vs simulation -------------------------------------------

TEST(Properties, SimulatedSpeedupNearAnalyticPrediction) {
  // The sim-vs-model differential oracle on the paper's N/M grid: PINNED
  // speedup within tolerance of N/(T+1) (Section 4), SPEED strictly better
  // and never above machine capacity M.
  std::vector<check::Violation> violations;
  const auto grid = check::check_analytic_grid(violations);
  EXPECT_EQ(grid.size(), 4u);
  EXPECT_TRUE(violations.empty()) << check::format_violations(violations);
  for (const check::AnalyticPoint& pt : grid) {
    EXPECT_GT(pt.predicted_speedup, 1.0);
    EXPECT_GT(pt.speed_speedup, pt.pinned_speedup);
  }
}

// --- Rotation observed directly (Section 4 quantities) ----------------------

TEST(Properties, EveryThreadRunsOnAFastQueueUnderSpeed) {
  // The Lemma 1 mechanism observed through the run-segment trace: with 3
  // threads on 2 cores under speed balancing, every thread spends a
  // nontrivial fraction of its execution as the *solo* occupant of a core
  // (full speed). Under static pinning, the two doubled-up threads never
  // do. "Solo" is approximated per thread as windows where it accrues
  // nearly wall-rate execution.
  const SpeedRig rig = run_speed_app(2, 3, 3e6, 31);
  ASSERT_TRUE(rig.finished);
  ASSERT_EQ(rig.rec->run_segments().dropped(), 0);

  const SimTime wall = rig.app->elapsed();
  for (Task* t : rig.app->threads()) {
    // Count 100 ms windows where this thread got > 90% of the window.
    int fast_windows = 0;
    int windows = 0;
    for (SimTime w = 0; w + msec(100) <= wall; w += msec(100)) {
      const SimTime exec =
          exec_in_window(rig.segments, t->id(), w, w + msec(100));
      ++windows;
      if (exec > msec(90)) ++fast_windows;
    }
    EXPECT_GT(fast_windows, windows / 10) << t->name();
  }
}

TEST(Properties, RotationSpreadsResidencyAcrossCores) {
  // 4 threads on 3 cores, long run: under SPEED no thread is wholly
  // resident on a single core, and every core hosts real work.
  const SpeedRig rig = run_speed_app(3, 4, 3e6, 37);
  ASSERT_TRUE(rig.finished);
  for (Task* t : rig.app->threads()) {
    double max_single = 0.0;
    for (CoreId c = 0; c < 3; ++c) {
      const CoreId cc = c;
      max_single = std::max(max_single,
                            rig.sim->metrics().residency_fraction(
                                t->id(), [cc](CoreId x) { return x == cc; }));
    }
    EXPECT_LT(max_single, 0.95) << t->name() << " never rotated";
  }
}

TEST(Properties, SpeedMeasureCapturesPriorities) {
  // Section 5: the execution-time speed measure "captures different task
  // priorities ... without requiring any special cases". A heavyweight
  // (high-priority) unrelated task on core 0 squeezes the app thread there
  // to a 1/3 share; the balancer sees the low speed and rotates the app's
  // threads around it, beating the static assignment.
  const auto run = [](bool with_speed) {
    Simulator sim(presets::generic(2), {}, 41);
    struct Hog : TaskClient {
      void on_work_complete(Simulator& s, Task& task) override {
        s.assign_work(task, 1e9);
      }
    };
    static Hog hog;
    Task& heavy = sim.create_task({.name = "priority-hog", .client = &hog,
                                   .weight = 2.0});
    sim.assign_work(heavy, 1e9);
    sim.start_task_on(heavy, 0, 0b01);

    SpmdAppSpec spec = workload::uniform_app(2, 2, 1e6);
    SpmdApp app(sim, spec);
    app.launch(SpmdApp::Placement::RoundRobin, workload::first_cores(2));
    SpeedBalancer sb({}, app.threads(), workload::first_cores(2));
    if (with_speed) sb.attach(sim);
    sim.run_while_pending([&] { return app.finished(); }, sec(600));
    return to_sec(app.elapsed());
  };
  // Static: the thread sharing with the weight-2 hog runs at 1/3 speed; the
  // barrier paces the app at 3x. Speed balancing spreads the loss.
  const double pinned_like = run(false);
  const double balanced = run(true);
  EXPECT_LT(balanced, 0.85 * pinned_like);
}

// --- Serve determinism --------------------------------------------------------

TEST(Properties, ServeRunIsByteIdenticalUnderFixedSeed) {
  // A serve run draws from three stochastic sources (arrivals, service
  // demands, balancer jitter) plus a perturbation timeline; all flow through
  // seeded streams, so two identical configs must produce byte-identical
  // observability reports — including every histogram bucket and counter.
  // The config is lowered from a fuzz scenario through the same path
  // `fuzzsim` uses.
  check::FuzzScenario sc;
  sc.seed = 1234;
  sc.mode = check::Mode::Serve;
  sc.topo = "generic3";
  sc.policy = Policy::Speed;
  sc.cores = 3;
  sc.workers = 6;
  sc.serve_busy_poll = true;
  sc.arrival = workload::ArrivalKind::Bursty;
  sc.utilization = 0.5;
  sc.duration = sec(3);
  sc.perturb = perturb::PerturbTimeline::parse_specs(
                   "at=200ms dvfs core=0 scale=0.5; at=1500ms dvfs core=0 scale=1.0")
                   .events();
  sc.validate();

  const auto report = [&sc] {
    serve::ServeConfig config = check::serve_experiment(sc);
    config.warmup = msec(300);
    obs::RunRecorder rec;
    config.recorder = &rec;
    const serve::ServeResult r = serve::run_serve(config);
    EXPECT_GT(r.stats.completed, 0);
    std::ostringstream os;
    rec.write_report_json(os);
    return os.str();
  };
  const std::string first = report();
  const std::string second = report();
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace speedbal
