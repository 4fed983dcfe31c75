#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "app/multiprog.hpp"
#include "app/spmd.hpp"
#include "balance/adaptive.hpp"
#include "balance/dwrr.hpp"
#include "balance/linux_load.hpp"
#include "balance/speed.hpp"
#include "balance/ule.hpp"
#include "hetero/share.hpp"
#include "obs/recorder.hpp"
#include "perturb/timeline.hpp"
#include "topo/topology.hpp"
#include "util/enum_names.hpp"
#include "util/stats.hpp"

namespace speedbal {

/// Which balancing policy governs the run. LOAD/SPEED/PINNED follow the
/// paper's terminology; Speed and Pinned coexist with the kernel Linux
/// balancer exactly as in the paper (their threads are invisible to it).
enum class Policy {
  Load,    ///< Default Linux queue-length balancing only.
  Speed,   ///< User-level speed balancing on top of the Linux kernel.
  Pinned,  ///< Static round-robin pinning (application-level balancing).
  Dwrr,    ///< DWRR kernel replacing the Linux balancer.
  Ule,     ///< FreeBSD ULE push balancer replacing the Linux balancer.
  None,    ///< No balancing at all (fork placement only); for experiments.
  Share,   ///< Speed-weighted work partitioning: threads stay pinned, the
           ///< per-phase work shares follow measured core speed (hetero).
};

/// Only the serve, cluster and fuzz front ends parse a Policy (batch runs
/// name a scenarios::Setup), hence the noun "serve policy".
inline constexpr auto kPolicyNames =
    enum_names<Policy>("serve policy", "LOAD", "SPEED", "PINNED", "DWRR",
                       "ULE", "NONE", "SHARE");
static_assert(kPolicyNames.ends_at(Policy::Share));

inline const char* to_string(Policy p) { return kPolicyNames[p]; }

/// One experiment: an SPMD application on a machine under a policy,
/// repeated with different seeds (the paper reports 10+ runs everywhere
/// because LOAD is erratic).
struct ExperimentConfig {
  Topology topo = Topology::build({});
  SpmdAppSpec app;
  Policy policy = Policy::Load;
  /// Restrict to the first `cores` cores (the paper's taskset); 0 = all.
  int cores = 0;
  int repeats = 10;
  std::uint64_t seed = 42;
  /// Replicas executed concurrently (each on its own Simulator with its own
  /// salted RNG stream). Results are merged in repeat order, so every
  /// aggregate, report, and trace is byte-identical for any value; 1 (the
  /// default) runs today's sequential loop. 0 means hardware concurrency.
  int jobs = 1;
  /// Simulated-time cap per run; runs that exceed it are marked incomplete.
  SimTime time_cap = sec(3600);

  SpeedBalanceParams speed;
  LinuxLoadParams linux_load;
  DwrrParams dwrr;
  UleParams ule;
  hetero::ShareParams share;
  /// Online tuning of the SPEED constants (`--adaptive`): when enabled, the
  /// run wraps the speed balancer in the adaptive controller; `speed` above
  /// still supplies the base constant-set (portfolio arm 0).
  AdaptiveParams adaptive;
  SimParams sim;

  /// Optional competitors sharing the machine.
  bool cpu_hog = false;
  CoreId cpu_hog_core = 0;
  std::optional<MakeSpec> make;

  /// Scripted interference: DVFS changes, hotplug, cpu-hog start/stop, work
  /// spikes, injected failures — applied at their scheduled times in every
  /// repeat (see perturb::SimPerturbDriver).
  perturb::PerturbTimeline perturb;

  /// Per-run hooks, called with the repeat index: `on_run_start` right
  /// after the application and balancers are attached (install custom
  /// probes via Simulator::schedule_at here), `on_run_end` when the run is
  /// over but the simulation state is still alive (harvest application
  /// series such as phase times). Null = unused. With jobs > 1 the hooks
  /// run concurrently from pool workers: they must only touch per-repeat
  /// state (e.g. write into a slot indexed by the repeat argument).
  std::function<void(Simulator&, SpmdApp&, int)> on_run_start;
  std::function<void(Simulator&, SpmdApp&, int)> on_run_end;

  /// Observability: when set, repeat 0 runs with full tracing (speed
  /// timeline, decision log, migration events, run segments) into this
  /// recorder. Null = no tracing (the default; the only residual cost is a
  /// pointer test on the hot paths).
  obs::RunRecorder* recorder = nullptr;
};

/// Outcome of a single run.
struct RunResult {
  bool completed = false;
  double runtime_s = 0.0;  ///< Application elapsed time (seconds).
  std::int64_t total_migrations = 0;
  std::int64_t policy_migrations = 0;  ///< By the policy under test.
  /// Migration totals attributed to each mechanism (fork/wake placement,
  /// kernel balancing, the policy under test, ...).
  std::map<MigrationCause, std::int64_t> migrations_by_cause;
};

/// Aggregated outcome across repeats.
struct ExperimentResult {
  std::vector<RunResult> runs;
  Summary runtime;  ///< Over completed runs' runtime_s.

  bool all_completed() const;
  double mean_runtime() const { return runtime.mean; }
  double worst_runtime() const { return runtime.max; }
  double best_runtime() const { return runtime.min; }
  /// The paper's "% variation": max/min - 1 over the repeated runs.
  double variation_pct() const { return runtime.variation_pct(); }
  double mean_migrations() const;
  /// Per-cause migration means over the repeated runs.
  std::map<MigrationCause, double> mean_migrations_by_cause() const;
};

/// Run the experiment: `repeats` independent simulations with derived
/// seeds; returns the per-run results and aggregate statistics.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace speedbal
