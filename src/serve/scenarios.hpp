#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "perturb/timeline.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"
#include "workload/arrivals.hpp"

namespace speedbal::serve {

/// SPEED defaults for serving: demand-scaled measurement, so a worker that
/// sleeps on an empty queue does not read as a slow worker (the batch
/// default conflates idleness with slowness and migrates the wrong way).
inline SpeedBalanceParams serve_speed_defaults() {
  SpeedBalanceParams p;
  p.demand_scaled = true;
  return p;
}

/// One serve run: an open-loop load generator feeding the sharded dispatch
/// layer into a worker pool balanced by `policy` (the same Policy set the
/// batch experiments use — SPEED/LOAD/PINNED coexist with the kernel Linux
/// balancer; DWRR/ULE replace it; NONE leaves fork placement alone).
struct ServeConfig {
  Topology topo = Topology::build({});
  /// Restrict to the first `cores` cores (taskset); 0 = all.
  int cores = 0;
  Policy policy = Policy::Speed;
  ServeParams serve;
  workload::ArrivalSpec arrival;
  workload::ServiceSpec service;
  SimTime duration = sec(10);
  /// Requests arriving before `warmup` are served but not measured.
  SimTime warmup = sec(1);
  std::uint64_t seed = 42;

  SpeedBalanceParams speed = serve_speed_defaults();
  LinuxLoadParams linux_load;
  DwrrParams dwrr;
  UleParams ule;
  hetero::ShareParams share;
  /// Online tuning of the SPEED constants (`--adaptive`): wraps the speed
  /// balancer in the adaptive controller, with `speed` as the base arm.
  AdaptiveParams adaptive;
  SimParams sim;

  /// Scripted interference applied mid-serving (DVFS, hotplug, hogs).
  perturb::PerturbTimeline perturb;

  /// When set, the run records into this recorder: latency histograms, drop
  /// and throughput counters, queue-depth trace samples, balancer decisions.
  obs::RunRecorder* recorder = nullptr;
  /// Export the result-level summary (histograms + serve.* counters) into
  /// the recorder at the end of run_serve. run_serve_repeats disables this
  /// for every replica and exports the *merged* result once instead — the
  /// per-repeat re-serialization otherwise wasted work and recorded only
  /// replica 0's totals.
  bool export_result = true;

  /// Hooks mirroring ExperimentConfig's: `on_run_start` fires after the
  /// balancers and worker pool are attached but before the load generator
  /// starts (install probes via Simulator::schedule_at here); `on_run_end`
  /// fires after the runtime closes, while the simulation state is still
  /// alive. Null = unused. Under run_serve_repeats they fire in every
  /// replica, concurrently when jobs > 1.
  std::function<void(Simulator&, ServeRuntime&)> on_run_start;
  std::function<void(Simulator&, ServeRuntime&)> on_run_end;
};

/// Outcome of a serve run.
struct ServeResult {
  ServeStats stats;
  std::int64_t generated = 0;  ///< All arrivals, including warmup.
  double goodput_rps = 0.0;    ///< Completed / measured window.
  std::int64_t total_migrations = 0;
  std::map<MigrationCause, std::int64_t> migrations_by_cause;
};

/// Run the serving scenario once (serve runs are long and deterministic
/// under the seed; repeat-averaging is the caller's choice).
ServeResult run_serve(const ServeConfig& config);

/// Write a serve result's summary (latency histograms and serve.* counters)
/// into `rec`. run_serve calls this unless config.export_result is false;
/// run_serve_repeats calls it once with the merged result.
void export_result_to_recorder(const ServeResult& result, obs::RunRecorder& rec);

/// The one replica runner behind run_serve_repeats and
/// cluster::run_cluster_repeats. Runs `repeats` independent replicas of
/// `run` (salted seeds derived from config.seed via replica_seed) up to
/// `jobs`-way parallel. Only replica 0 records into config.recorder, and no
/// replica exports its own result. `merge(out, replica)` folds replicas
/// 1.. into replica 0's result in replica order, and goodput_rps is
/// averaged here, so the result is byte-identical for any `jobs`. The
/// merged result is exported once (export_result_to_recorder, found by
/// argument-dependent lookup) when config.export_result is set.
/// repeats <= 1 is exactly `run(config)`.
template <typename Config, typename Run, typename Merge>
auto run_replicas(const Config& config, int repeats, int jobs, Run run,
                  Merge merge) {
  using Result = decltype(run(config));
  if (repeats <= 1) return run(config);
  std::vector<Result> runs(static_cast<std::size_t>(repeats));
  parallel_for_seeds(jobs, repeats, config.seed,
                     [&](int rep, std::uint64_t seed) {
                       Config local = config;
                       local.seed = seed;
                       if (rep != 0) local.recorder = nullptr;
                       // Exporting per replica would both waste the
                       // serialization and record only replica 0's totals.
                       local.export_result = false;
                       runs[static_cast<std::size_t>(rep)] = run(local);
                     });
  Result out = std::move(runs[0]);
  double goodput_sum = out.goodput_rps;
  for (std::size_t r = 1; r < runs.size(); ++r) {
    merge(out, runs[r]);
    goodput_sum += runs[r].goodput_rps;
  }
  out.goodput_rps = goodput_sum / static_cast<double>(repeats);
  if (config.recorder != nullptr && config.export_result)
    export_result_to_recorder(out, *config.recorder);
  return out;
}

/// run_replicas over run_serve: counters are summed, latency histograms
/// merged, goodput averaged.
ServeResult run_serve_repeats(const ServeConfig& config, int repeats, int jobs);

/// Sum of the managed cores' relative clock speeds: the machine's service
/// capacity in nominal-work units per unit time.
double capacity(const Topology& topo, int cores);

/// Arrival rate (requests/s) that offers `utilization` of the managed
/// cores' capacity given the mean per-request service demand.
double rate_for_utilization(const Topology& topo, int cores,
                            double utilization, double mean_service_us);

/// Parse a serve policy name ("LOAD", "SPEED", ...); throws
/// std::invalid_argument naming the valid values otherwise.
inline Policy parse_serve_policy(std::string_view name) {
  return kPolicyNames.parse(name);
}

}  // namespace speedbal::serve
