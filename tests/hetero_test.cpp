#include "hetero/share.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "check/invariants.hpp"
#include "core/experiment.hpp"
#include "hetero/setups.hpp"
#include "model/analytic.hpp"
#include "serve/dispatch.hpp"
#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal {
namespace {

struct Hog : TaskClient {
  void on_work_complete(Simulator& sim, Task& task) override {
    sim.assign_work(task, 1e9);
  }
};

/// One busy hog per managed core, a non-automatic ShareBalancer attached,
/// and `warm_us` of simulated execution so the first epoch has a clean
/// measurement window.
struct EpochRig {
  EpochRig(Topology topo, hetero::ShareParams params, SimTime warm_us,
           int nthreads = 0)
      : sim(topo), share([&] {
          params.automatic = false;
          params.measurement_noise = 0.0;
          std::vector<CoreId> cores;
          for (CoreId c = 0; c < topo.num_cores(); ++c) cores.push_back(c);
          return hetero::ShareBalancer(params, cores);
        }()) {
    const int n = nthreads > 0 ? nthreads : topo.num_cores();
    for (int i = 0; i < n; ++i) {
      Task& t =
          sim.create_task({.name = "t" + std::to_string(i), .client = &hog});
      sim.assign_work(t, 1e9);
      sim.start_task(t);
      tasks.push_back(&t);
    }
    share.set_managed(tasks);
    share.attach(sim);
    sim.run_while_pending([] { return false; }, warm_us);
  }

  Simulator sim;
  Hog hog;
  std::vector<Task*> tasks;
  hetero::ShareBalancer share;
};

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// --- Partition math (no measurement involved) --------------------------------

TEST(SharePartition, UniformBootstrapBeforeAttach) {
  hetero::ShareBalancer share(hetero::ShareParams{}, {0, 1, 2, 3});
  for (const int n : {4, 5, 8, 11}) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += share.thread_share(i, n);
    EXPECT_NEAR(total, 1.0, 1e-12) << n << " threads";
  }
  // 4 cores, 4 threads: exactly one thread per core, uniform machine.
  EXPECT_NEAR(share.thread_share(0, 4), 0.25, 1e-12);
  // 6 threads round-robin: cores 0 and 1 carry two threads each.
  EXPECT_NEAR(share.thread_share(0, 6), share.thread_share(4, 6), 1e-12);
  EXPECT_GT(share.thread_share(2, 6), share.thread_share(0, 6));
}

TEST(SharePartition, RenormalizesOverOccupiedCores) {
  // Fewer threads than cores: the empty cores' shares must be redistributed
  // or the barrier-phase work would silently shrink.
  hetero::ShareBalancer share(hetero::ShareParams{}, {0, 1, 2, 3});
  double total = 0.0;
  for (int i = 0; i < 2; ++i) total += share.thread_share(i, 2);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// --- Epoch mechanics ---------------------------------------------------------

TEST(ShareEpoch, BootstrapAdoptsClockProportionalShares) {
  hetero::ShareParams params;
  params.min_share = 0.02;
  EpochRig rig(presets::big_little(2, 2, 3.0), params, msec(100));
  rig.share.epoch_once();

  ASSERT_EQ(rig.share.epochs(), 1);
  const auto& speeds = rig.share.smoothed_speeds();
  ASSERT_EQ(speeds.size(), 4u);
  EXPECT_NEAR(speeds[0], 3.0, 1e-9);
  EXPECT_NEAR(speeds[1], 3.0, 1e-9);
  EXPECT_NEAR(speeds[2], 1.0, 1e-9);
  EXPECT_NEAR(speeds[3], 1.0, 1e-9);

  const auto& shares = rig.share.core_shares();
  EXPECT_NEAR(shares[0], 3.0 / 8.0, 1e-9);
  EXPECT_NEAR(shares[2], 1.0 / 8.0, 1e-9);
  EXPECT_NEAR(sum(shares), 1.0, 1e-12);
}

TEST(ShareEpoch, SteadySpeedsHoldBelowHysteresis) {
  hetero::ShareParams params;
  params.hysteresis = 0.02;
  EpochRig rig(presets::big_little(2, 2, 3.0), params, msec(100));
  obs::RunRecorder rec;
  rig.share.set_recorder(&rec);
  rig.share.epoch_once();
  const auto adopted = rig.share.core_shares();
  rig.sim.run_while_pending([] { return false; }, msec(200));
  rig.share.epoch_once();

  EXPECT_EQ(rig.share.core_shares(), adopted);
  EXPECT_EQ(rec.shares().count(obs::ShareOutcome::Bootstrap), 1);
  EXPECT_EQ(rec.shares().count(obs::ShareOutcome::BelowHysteresis), 1);
}

TEST(ShareEpoch, MinShareFloorClampsSlowCores) {
  hetero::ShareParams params;
  params.min_share = 0.1;
  EpochRig rig(presets::big_little(1, 3, 50.0), params, msec(100));
  obs::RunRecorder rec;
  rig.share.set_recorder(&rec);
  rig.share.epoch_once();

  const auto& shares = rig.share.core_shares();
  // Proportional shares would give the little cores 1/53 < 0.02 each; the
  // floor holds all three at 0.1 and the big core absorbs the rest.
  EXPECT_NEAR(shares[0], 0.7, 1e-9);
  for (int c = 1; c < 4; ++c) EXPECT_NEAR(shares[c], 0.1, 1e-9);
  EXPECT_NEAR(sum(shares), 1.0, 1e-12);
  const auto records = rec.shares().snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].floor_clamped, 3);
}

TEST(ShareEpoch, CountSourceKeepsSharesUniform) {
  hetero::ShareParams params;
  params.source = hetero::ShareParams::Source::Count;
  EpochRig rig(presets::big_little(2, 2, 4.0), params, msec(100));
  rig.share.epoch_once();
  for (const double s : rig.share.core_shares()) EXPECT_NEAR(s, 0.25, 1e-12);
}

TEST(ShareEpoch, SinkSeesEveryAdoptedPartition) {
  hetero::ShareParams params;
  EpochRig rig(presets::big_little(2, 2, 2.0), params, msec(100));
  std::vector<std::vector<double>> seen;
  rig.share.set_sink([&seen](const std::vector<double>& s) {
    seen.push_back(s);
  });
  rig.share.epoch_once();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], rig.share.core_shares());
}

TEST(ShareEpoch, PinsThreadsRoundRobinAndNeverMigrates) {
  EpochRig rig(presets::big_little(2, 2, 3.0), hetero::ShareParams{},
               msec(100), /*nthreads=*/6);
  EXPECT_EQ(rig.tasks[0]->core(), 0);
  EXPECT_EQ(rig.tasks[3]->core(), 3);
  EXPECT_EQ(rig.tasks[4]->core(), 0);
  rig.share.epoch_once();
  rig.sim.run_while_pending([] { return false; }, msec(300));
  // Repartitioning moves work, never threads.
  EXPECT_EQ(rig.sim.metrics().migration_count(MigrationCause::SpeedBalancer),
            0);
  EXPECT_EQ(rig.tasks[4]->core(), 0);
}

// --- End to end: the SPMD experiment stack -----------------------------------

TEST(ShareExperiment, TracksOptimumAndBeatsCountBaselineOnBigLittle) {
  const Topology topo = presets::big_little(4, 4, 3.0);
  ExperimentConfig cfg;
  cfg.topo = topo;
  cfg.app = workload::uniform_app(8, 8, 10000.0);
  cfg.policy = Policy::Share;
  cfg.cores = 8;
  cfg.repeats = 1;
  cfg.seed = 42;
  cfg.share.interval = msec(2);
  cfg.share.ewma_alpha = 0.5;
  cfg.share.measurement_noise = 0.0;

  model::HeteroShape shape;
  for (CoreId c = 0; c < 8; ++c) shape.speeds.push_back(topo.core(c).clock_scale);

  obs::RunRecorder rec;
  cfg.recorder = &rec;
  const double share_s = run_experiment(cfg).runs.at(0).runtime_s;
  // With noise off the bootstrap epoch already measures the true speeds and
  // adopts the optimal partition; later epochs hold below hysteresis. The
  // log must show that single adoption and shares near the analytic target.
  EXPECT_EQ(rec.shares().count(obs::ShareOutcome::Bootstrap), 1);
  const auto records = rec.shares().snapshot();
  ASSERT_GE(records.size(), 2u);
  const auto opt = model::optimal_shares(shape);
  for (int c = 0; c < 8; ++c)
    EXPECT_NEAR(records.back().shares[c], opt[c], 0.05) << "core " << c;

  cfg.recorder = nullptr;
  cfg.share.source = hetero::ShareParams::Source::Count;
  const double count_s = run_experiment(cfg).runs.at(0).runtime_s;

  const double optimal_s = 8 * model::optimal_makespan(shape, 8 * 10000.0) / 1e6;
  // SHARE lands near the optimum (the gap is the uniform bootstrap phase);
  // the count baseline pays the full (r+1)/2 = 2x penalty.
  EXPECT_LT(share_s, optimal_s * 1.25);
  EXPECT_GT(count_s, share_s * 1.6);
}

// --- The fuzz harness's conservation checker ---------------------------------

obs::ShareRecord good_record() {
  obs::ShareRecord r;
  r.ts_us = 1000;
  r.epoch = 1;
  r.outcome = obs::ShareOutcome::Repartitioned;
  r.shares = {0.375, 0.375, 0.125, 0.125};
  r.speeds = {3.0, 3.0, 1.0, 1.0};
  return r;
}

TEST(ShareConservation, AcceptsHonestRecord) {
  std::vector<check::Violation> out;
  check::check_share_conservation({4, 0.02, {good_record()}}, out);
  EXPECT_TRUE(out.empty()) << check::format_violations(out);
}

TEST(ShareConservation, CatchesLeakedWork) {
  obs::ShareRecord r = good_record();
  r.shares[0] = 0.25;  // Sum now 0.875: an eighth of the work vanished.
  std::vector<check::Violation> out;
  check::check_share_conservation({4, 0.02, {r}}, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].invariant, "share-conservation");
  EXPECT_NE(out[0].detail.find("sum"), std::string::npos);
}

TEST(ShareConservation, CatchesFloorViolationAndBadSpeeds) {
  obs::ShareRecord r = good_record();
  r.shares = {0.49, 0.49, 0.01, 0.01};  // Sums to 1, but under the floor.
  r.speeds[3] = 0.0;
  std::vector<check::Violation> out;
  check::check_share_conservation({4, 0.02, {r}}, out);
  EXPECT_EQ(out.size(), 3u) << check::format_violations(out);
}

TEST(ShareConservation, CatchesWrongPartitionWidth) {
  obs::ShareRecord r = good_record();
  r.shares.pop_back();
  std::vector<check::Violation> out;
  check::check_share_conservation({4, 0.02, {r}}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].detail.find("managed cores"), std::string::npos);
}

// --- Weighted dispatch (smooth WRR) ------------------------------------------

TEST(WeightedDispatch, SmoothWrrMatchesWeightRatios) {
  const std::vector<double> weights = {3.0, 1.0};
  std::vector<double> credit;
  std::uint64_t cursor = 0;
  std::vector<int> picks;
  for (int i = 0; i < 8; ++i)
    picks.push_back(serve::pick_weighted(weights, credit, cursor));
  // Smooth WRR interleaves instead of bursting: 0,0,1,0 repeating.
  EXPECT_EQ(picks, (std::vector<int>{0, 0, 1, 0, 0, 0, 1, 0}));
}

TEST(WeightedDispatch, NonPositiveWeightsFallBackToRoundRobin) {
  const std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<double> credit;
  std::uint64_t cursor = 0;
  std::vector<int> picks;
  for (int i = 0; i < 4; ++i)
    picks.push_back(serve::pick_weighted(weights, credit, cursor));
  EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 0}));
}

// --- Hetero setups, topology presets, ramp profiles --------------------------

TEST(HeteroSetups, AdvertisesEveryPolicyWithMachineDescriptions) {
  const auto& setups = hetero::hetero_setups();
  ASSERT_EQ(setups.size(), 6u);
  for (const auto& s : setups) {
    EXPECT_EQ(s.name.rfind("HETERO-", 0), 0u) << s.name;
    // The description states the machine: core count and clock ladder.
    EXPECT_NE(s.description.find("cores"), std::string::npos) << s.name;
    EXPECT_NE(s.description.find("clocks"), std::string::npos) << s.name;
    EXPECT_NO_THROW(presets::by_name(s.topo)) << s.name;
  }
  ASSERT_NE(hetero::find_hetero_setup("HETERO-SHARE"), nullptr);
  EXPECT_EQ(hetero::find_hetero_setup("HETERO-SHARE")->policy,
            hetero::HeteroPolicy::Share);
  EXPECT_EQ(hetero::find_hetero_setup("SPEED-YIELD"), nullptr);
}

TEST(HeteroSetups, ClockLadderRunLengthEncodes) {
  EXPECT_EQ(hetero::clock_ladder(presets::big_little(4, 4, 3.0)), "4x3+4x1");
  EXPECT_EQ(hetero::clock_ladder(presets::generic(4)), "4x1");
}

// --- The heterogeneous analytic model ----------------------------------------

TEST(HeteroModel, OptimalSharesAreSpeedProportional) {
  const model::HeteroShape shape{{3.0, 3.0, 1.0, 1.0}};
  const auto shares = model::optimal_shares(shape);
  EXPECT_NEAR(shares[0], 0.375, 1e-12);
  EXPECT_NEAR(shares[3], 0.125, 1e-12);
  EXPECT_NEAR(sum(shares), 1.0, 1e-12);
}

TEST(HeteroModel, CountPenaltyGrowsLinearlyWithRatio) {
  for (const double r : {1.0, 2.0, 3.0, 4.0}) {
    model::HeteroShape shape;
    for (int i = 0; i < 4; ++i) shape.speeds.push_back(r);
    for (int i = 0; i < 4; ++i) shape.speeds.push_back(1.0);
    EXPECT_NEAR(model::count_penalty(shape), (r + 1.0) / 2.0, 1e-12) << r;
    EXPECT_NEAR(model::count_balanced_makespan(shape, 80.0) /
                    model::optimal_makespan(shape, 80.0),
                (r + 1.0) / 2.0, 1e-12);
  }
}

}  // namespace
}  // namespace speedbal
