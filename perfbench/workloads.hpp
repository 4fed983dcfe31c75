#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "step_trace.hpp"

namespace perfbench {

/// Simulated outputs of one workload unit, rendered exactly (integers, and
/// doubles with all 17 significant digits). A speed-only change must leave
/// every entry identical; so must the traced leg.
using Fingerprint = std::map<std::string, std::string>;

/// Exact simulated work counts of one unit (identical on every host).
struct Counts {
  std::int64_t events = 0;             ///< Simulator::events_executed, all sims.
  std::int64_t migrations = 0;         ///< Every cause.
  std::int64_t pulls = 0;              ///< MigrationCause::SpeedBalancer.
  std::int64_t kernel_migrations = 0;  ///< Linux periodic + new-idle + push.
  std::int64_t passes = 0;             ///< Speed-balancer passes (traced only).
  std::int64_t arrivals = 0;           ///< Requests generated.
  std::int64_t completions = 0;
  std::int64_t drops = 0;
  std::int64_t spans = 0;              ///< Request spans the recorder kept.
  std::int64_t pool_migrations = 0;

  Counts& operator+=(const Counts& o) {
    events += o.events;
    migrations += o.migrations;
    pulls += o.pulls;
    kernel_migrations += o.kernel_migrations;
    passes += o.passes;
    arrivals += o.arrivals;
    completions += o.completions;
    drops += o.drops;
    spans += o.spans;
    pool_migrations += o.pool_migrations;
    return *this;
  }
};

/// One workload unit (an SPMD replica, a serve episode, a cluster episode)
/// run through the public entry point users call.
struct UnitRun {
  double setup_s = 0.0;  ///< Host time before the first simulated event.
  double run_s = 0.0;    ///< Host time from the first event to the result.
  std::int64_t ops = 0;  ///< Input units: 1 replica, or requests generated.
  std::string failure;   ///< Empty when every output check passed.
  Fingerprint fingerprint;
  Counts counts;
  double obs_self_ns = 0.0;    ///< RunRecorder::overhead (serve only).
  double obs_export_ns = 0.0;  ///< RunRecorder::export_overhead (serve only).
};

/// Host-side per-layer numbers only the traced cluster leg produces,
/// accumulated over its units.
struct ClusterProbe {
  std::vector<double> epoch_us;           ///< Per rebalance_once() call.
  std::vector<double> setup_us_per_node;  ///< Per constructor call.
  double run_s = 0.0;  ///< Full-size cluster, run() only.
  double requests = 0.0;
  double twin_run_s = 0.0;  ///< 16-node twin at equal per-node load.
  double twin_requests = 0.0;
};

/// One benchmark workload: its unit runner through the public entry point,
/// and a traced twin that assembles the same stack from public parts and
/// must reproduce the unit's fingerprint exactly.
struct Workload {
  const char* name;
  /// Units the traced leg runs (fixed, so its counts repeat exactly).
  int traced_units;
  UnitRun (*run)(std::uint64_t seed);
  UnitRun (*traced)(std::uint64_t seed, StepTrace& trace, ClusterProbe& probe);
};

/// The workloads, by name; null when unknown.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// SPMD replicas through run_experiment at jobs=1 and at `jobs`: returns
/// the jobs=1 and jobs=N wall seconds, or an error when the aggregates
/// differ.
struct ParallelLeg {
  int replicas = 0;
  double wall_jobs1_s = 0.0;
  double wall_jobsn_s = 0.0;
  std::string failure;
};
ParallelLeg run_parallel_leg(std::uint64_t seed, int replicas, int jobs);

}  // namespace perfbench
