#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "balance/adaptive.hpp"
#include "obs/decision_log.hpp"
#include "obs/share_log.hpp"
#include "obs/span.hpp"
#include "obs/tuning_log.hpp"
#include "sim/metrics.hpp"
#include "topo/topology.hpp"
#include "util/time.hpp"

namespace speedbal::check {

/// One invariant failure. `invariant` is the class slug the broken-stub
/// tests and the minimizer key on ("time-conservation", "task-conservation",
/// "affinity", "numa-block", "cooldown", "threshold", "speed-accounting",
/// "histogram-merge", "event-queue", "serve-counters",
/// "cluster-conservation", "span-conservation", "sampling-identity",
/// "share-conservation", "oscillation", "tuning-thrash", "speed-consistency",
/// "liveness");
/// `detail` is a deterministic human-readable message (fixed-format number
/// rendering, no pointers or timestamps), so a replayed episode reproduces
/// the violation byte-for-byte.
struct Violation {
  std::string invariant;
  std::string detail;
};

/// Render "slug: detail" lines, one per violation, in order.
std::string format_violations(const std::vector<Violation>& vs);

// ---------------------------------------------------------------------------
// Each checker below is a pure function over plain observation structs, so
// the unit tests can prove every violation class fires by forging data —
// no broken simulator build required.

/// Per-core time accounting at the end of a run (after sync_all_accounting).
struct CoreTimes {
  int core = -1;
  SimTime elapsed = 0;   ///< Simulation end time.
  SimTime busy = 0;      ///< CoreState::busy_time().
  SimTime exec_sum = 0;  ///< Sum of Metrics::exec_by_core(t)[core] over all tasks.
};

/// Time conservation (the denominator of the paper's speed = t_exec/t_real,
/// Section 4): a core cannot execute more than elapsed wall time, and the
/// metrics layer's per-task exec must sum exactly to the core's busy time
/// (exec + idle = elapsed, with idle = elapsed - busy implied). Emits
/// "time-conservation" and "speed-accounting".
void check_time_conservation(const std::vector<CoreTimes>& cores,
                             std::vector<Violation>& out);

/// Point-in-time snapshot of one task, taken by the mid-run probe or at the
/// end of the run.
struct TaskSnapshot {
  std::int64_t id = -1;
  std::string state;            ///< to_string(task.state()).
  bool expect_queued = false;   ///< Runnable/Running (Parked/Sleeping/Finished: false).
  int core = -1;                ///< Task::core().
  bool allowed_on_core = false; ///< Affinity mask admits `core`.
  bool core_online = false;
  int queue_memberships = 0;    ///< Cores whose CFS queue contains the task.
  bool on_own_queue = false;    ///< Membership on `core` specifically.
  SimTime when = 0;             ///< Probe time (for the detail message).
};

/// No lost or duplicated tasks across migrations, and affinity always
/// respected: a Runnable/Running task sits on exactly one run queue — its
/// own core's — and that core is online and inside the task's affinity
/// mask; a blocked/parked/finished task is on no queue. Emits
/// "task-conservation" and "affinity".
void check_task_placement(const std::vector<TaskSnapshot>& tasks,
                          std::vector<Violation>& out);

/// One running core at a probe: the speed its stop timer was armed at and
/// the speed the model gives its task for the running set of that instant.
struct CoreSpeed {
  int core = -1;
  std::int64_t task = -1;
  double current = 0.0;  ///< CoreState::current_speed().
  double model = 0.0;    ///< Simulator::compute_speed(task, core).
  SimTime when = 0;      ///< Probe time (for the detail message).
};

/// Every running core's speed is the model speed of its task on that core,
/// within 1e-12 (the tolerance below which the simulator re-times nothing).
/// A start or stop that skips a core whose contention or bus demand it
/// changed leaves a stale speed, and with it a wrong exec rate and stop
/// time. Emits "speed-consistency".
void check_speed_consistency(const std::vector<CoreSpeed>& speeds,
                             std::vector<Violation>& out);

/// Inputs for the SPEED-balancer rule checks (paper Section 5).
struct SpeedRuleInputs {
  double threshold = 0.9;            ///< T_s.
  SimTime interval = msec(100);      ///< Balance interval B.
  int post_migration_block = 2;      ///< Block length in intervals.
  double shared_cache_block_scale = 1.0;
  bool block_numa = true;
  const Topology* topo = nullptr;    ///< For same_numa / same_cache.
  /// Full migration log (every cause; the checks filter).
  std::vector<MigrationRecord> migrations;
  /// Full decision log (the checks filter on PullReason::Pulled).
  std::vector<obs::DecisionRecord> decisions;
  /// Tuning trajectory when the adaptive controller drove the run (empty
  /// under fixed constants): the record with the greatest ts_us <= t gives
  /// the constants in force at time t — the controller applies a parameter
  /// change before the same pass's pull decision, so a record timestamped
  /// at t governs decisions at t. The fields above are the base constants
  /// in force before the first record.
  std::vector<obs::TuningRecord> tuning;
};

/// Section 5 rules, checked post-hoc against the logs:
///  - "numa-block": no SpeedBalancer-cause migration after t=0 crosses a
///    NUMA boundary while block_numa is set (the t=0 round-robin pins are
///    placement, not pulls, and are exempt).
///  - "cooldown": consecutive pulls sharing an endpoint core are separated
///    by at least post_migration_block * interval (scaled by
///    shared_cache_block_scale when the later pull's pair shares a cache).
///  - "threshold": every Pulled decision has source_speed/global < T_s and
///    local_speed > global (the pull precondition), global > 0.
///  - "speed-accounting": the number of Pulled decisions equals the number
///    of SpeedBalancer-cause migrations after t=0 (no unlogged pulls, no
///    phantom decisions).
void check_speed_rules(const SpeedRuleInputs& in, std::vector<Violation>& out);

/// Inputs for the adaptive-balancer stability checks (the PR-10 invariant:
/// self-tuning must not oscillate).
struct TuningRuleInputs {
  SimTime interval = msec(100);  ///< Base balance interval (portfolio arm 0).
  int hot_potato_guard = 3;      ///< The balancers' kHotPotatoGuard.
  int min_dwell_epochs = 4;      ///< AdaptiveParams::min_dwell_epochs.
  /// The controller's arm set; empty skips the arm-membership check (e.g. a
  /// cluster node whose per-node trajectory went unrecorded).
  std::vector<TuningArm> portfolio;
  /// Full migration log (every cause; the checks filter).
  std::vector<MigrationRecord> migrations;
  /// Tuning trajectory; same in-force semantics as SpeedRuleInputs.
  std::vector<obs::TuningRecord> tuning;
};

/// Hot-potato freedom: no task's consecutive speed pulls form A->B followed
/// by B->A within hot_potato_guard balance intervals (the interval in force
/// at the returning pull). A violation means two cores traded the same task
/// back and forth faster than its speed measurement could have stabilized —
/// the oscillation the guard exists to prevent. Emits "oscillation".
void check_oscillation(const TuningRuleInputs& in, std::vector<Violation>& out);

/// Parameter-trajectory stability, checked against every tuning record the
/// controller logged:
///  - epochs strictly increase and timestamps never go backwards;
///  - each record's prev_arm continues the previous record's arm (no
///    unlogged parameter change between epochs);
///  - the constants match the portfolio arm they claim (when the portfolio
///    is supplied);
///  - an arm change carries a changing outcome (bootstrap / switched /
///    anticipated) and vice versa;
///  - consecutive arm changes are at least min_dwell_epochs apart — the
///    no-thrash dwell the controller must respect even when the bandit and
///    the predictor disagree every epoch. Emits "tuning-thrash".
void check_tuning_stability(const TuningRuleInputs& in,
                            std::vector<Violation>& out);

/// Request-serving conservation counters (end of run, recorded window).
struct ServeCounters {
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t dropped = 0;
  std::int64_t completed = 0;
  std::int64_t latency_count = 0;
  std::int64_t queue_wait_count = 0;
};

/// offered == admitted + dropped, completed <= admitted, and both latency
/// histograms hold exactly one sample per completed request. Emits
/// "serve-counters".
void check_serve_counters(const ServeCounters& c, std::vector<Violation>& out);

/// Cluster-wide request accounting at the end of a run. The `total_*` set
/// counts every request including warmup; the recorded set mirrors
/// ServeCounters at cluster scope.
struct ClusterCounters {
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t dropped = 0;
  std::int64_t completed = 0;
  std::int64_t total_generated = 0;
  std::int64_t total_completed = 0;
  std::int64_t total_dropped = 0;
  std::int64_t in_transit_end = 0;
  std::int64_t in_flight_end = 0;
  std::int64_t latency_count = 0;
  std::int64_t queue_wait_count = 0;
};

/// Cluster request conservation: every generated request is completed,
/// dropped, in the network, or on a node at the end — across all nodes and
/// across pool migrations (a drained request must not vanish or double).
/// Exactly: total_generated == total_completed + total_dropped +
/// in_transit_end + in_flight_end; recorded counters satisfy
/// 0 <= offered - admitted - dropped <= in_transit_end, completed <=
/// admitted, and one histogram sample per recorded completion. Emits
/// "cluster-conservation".
void check_cluster_conservation(const ClusterCounters& c,
                                std::vector<Violation>& out);

/// Inputs for the SHARE work-partition conservation check.
struct ShareRuleInputs {
  int cores = 0;            ///< Managed cores (= length of every shares vector).
  double min_share = 0.02;  ///< ShareParams::min_share in force.
  /// Full epoch log from the run's ShareBalancer(s). Under a cluster run
  /// each node's balancer logs its own epochs; every record is checked
  /// independently against the same shape.
  std::vector<obs::ShareRecord> records;
};

/// Work-share conservation, checked against every repartition epoch the run
/// logged: a record's shares vector spans exactly the managed cores, each
/// share lies in (0, 1], respects the min-share floor, and the partition
/// sums to 1 (work is moved, never created or destroyed); the smoothed
/// speeds the decision saw are positive and finite. Emits
/// "share-conservation".
void check_share_conservation(const ShareRuleInputs& in,
                              std::vector<Violation>& out);

/// Every traced request's span must exactly partition its sojourn time:
/// queue, exec, and preempt components are non-negative and sum to
/// completion - arrival (exact integer µs), and the warmup stall is within
/// [0, exec] (small FP epsilon). Emits "span-conservation".
void check_span_conservation(const std::vector<obs::RequestSpan>& spans,
                             std::vector<Violation>& out);

/// Observability must never perturb results: `with_obs` and `without_obs`
/// are result digests of the same scenario run once with a recorder (spans,
/// telemetry, probes) and once bare; any difference means the observer
/// leaked into the simulation (consumed randomness, reordered events).
/// Emits "sampling-identity".
void check_sampling_identity(const std::string& with_obs,
                             const std::string& without_obs,
                             std::vector<Violation>& out);

/// Property fuzz of LatencyHistogram::merge: draw a seeded random sample
/// set, record it whole and as randomly-split shards, merge the shards, and
/// require identical count / bucket contents / percentiles (and a tightly
/// bounded mean, which is FP-addition-order sensitive). Emits
/// "histogram-merge". Returns the number of samples exercised.
int fuzz_histogram_merge(std::uint64_t seed, std::vector<Violation>& out);

}  // namespace speedbal::check
