#include "core/experiment.hpp"

#include <memory>
#include <numeric>

#include "perturb/sim_driver.hpp"
#include "serve/policy_stack.hpp"
#include "util/parallel.hpp"
#include "workload/generator.hpp"

namespace speedbal {

bool ExperimentResult::all_completed() const {
  for (const auto& r : runs)
    if (!r.completed) return false;
  return !runs.empty();
}

double ExperimentResult::mean_migrations() const {
  if (runs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : runs) sum += static_cast<double>(r.total_migrations);
  return sum / static_cast<double>(runs.size());
}

std::map<MigrationCause, double> ExperimentResult::mean_migrations_by_cause() const {
  std::map<MigrationCause, double> out;
  if (runs.empty()) return out;
  for (const auto& r : runs)
    for (const auto& [cause, count] : r.migrations_by_cause)
      out[cause] += static_cast<double>(count);
  for (auto& [cause, sum] : out) {
    (void)cause;
    sum /= static_cast<double>(runs.size());
  }
  return out;
}

namespace {

RunResult run_once(const ExperimentConfig& config, std::uint64_t seed,
                   obs::RunRecorder* recorder, int rep) {
  Simulator sim(config.topo,
                serve::PolicyStack::sim_params(config.policy, config.sim),
                seed);
  sim.set_recorder(recorder);
  const int k = config.cores > 0 ? config.cores : config.topo.num_cores();
  const auto cores = workload::first_cores(k);

  // Competitors start first, as the paper's already-running unrelated tasks.
  std::unique_ptr<CpuHog> hog;
  if (config.cpu_hog) {
    hog = std::make_unique<CpuHog>(sim);
    hog->launch(config.cpu_hog_core);
  }
  std::unique_ptr<MakeWorkload> make;
  if (config.make) make = std::make_unique<MakeWorkload>(sim, *config.make);

  // Scripted interference timeline (DVFS, hotplug, hogs, spikes).
  std::unique_ptr<perturb::SimPerturbDriver> perturber;
  if (!config.perturb.empty()) {
    perturber = std::make_unique<perturb::SimPerturbDriver>(sim, config.perturb);
    perturber->set_recorder(recorder);
    perturber->arm();
  }

  serve::PolicyStack stack({config.policy, config.speed, config.linux_load,
                            config.dwrr, config.ule, config.share,
                            config.adaptive});
  stack.attach_kernel(sim);

  // The SHARE partitioner hook goes on a per-run copy of the spec —
  // config.app is shared across concurrent replicas.
  SpmdAppSpec app_spec = config.app;
  if (PhasePartitioner* p = stack.partitioner(cores)) app_spec.partitioner = p;
  SpmdApp app(sim, app_spec);
  app.launch(stack.round_robin_launch() ? SpmdApp::Placement::RoundRobin
                                        : SpmdApp::Placement::LinuxFork,
             cores);
  if (make) make->launch(cores);
  stack.attach_user(sim, app.threads(), cores, recorder);

  if (config.on_run_start) config.on_run_start(sim, app, rep);

  RunResult result;
  result.completed = sim.run_while_pending([&] { return app.finished(); },
                                           config.time_cap);
  if (config.on_run_end) config.on_run_end(sim, app, rep);
  result.runtime_s = result.completed ? to_sec(app.elapsed())
                                      : to_sec(config.time_cap);
  result.total_migrations = sim.metrics().migration_count();
  result.migrations_by_cause = sim.metrics().migration_counts_by_cause();
  if (recorder != nullptr) export_run_to_recorder(sim.metrics(), *recorder);
  switch (config.policy) {
    case Policy::Speed:
      result.policy_migrations =
          sim.metrics().migration_count(MigrationCause::SpeedBalancer);
      break;
    case Policy::Dwrr:
      result.policy_migrations = sim.metrics().migration_count(MigrationCause::Dwrr);
      break;
    case Policy::Ule:
      result.policy_migrations = sim.metrics().migration_count(MigrationCause::Ule);
      break;
    default:
      result.policy_migrations =
          sim.metrics().migration_count(MigrationCause::LinuxPeriodic) +
          sim.metrics().migration_count(MigrationCause::LinuxNewIdle) +
          sim.metrics().migration_count(MigrationCause::LinuxPush);
      break;
  }
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  ExperimentResult out;
  out.runs.resize(static_cast<std::size_t>(std::max(config.repeats, 0)));
  // Each replica is an independent Simulator with its own salted seed; only
  // repeat 0 carries the recorder. Results land in their repeat slot, so
  // aggregates below see the same order regardless of jobs.
  parallel_for_seeds(config.jobs, config.repeats, config.seed,
                     [&](int rep, std::uint64_t seed) {
                       out.runs[static_cast<std::size_t>(rep)] = run_once(
                           config, seed, rep == 0 ? config.recorder : nullptr,
                           rep);
                     });
  std::vector<double> runtimes;
  runtimes.reserve(out.runs.size());
  for (const RunResult& r : out.runs) runtimes.push_back(r.runtime_s);
  out.runtime = summarize(runtimes);
  return out;
}

}  // namespace speedbal
