#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "balance/balancer.hpp"
#include "balance/pull_rule.hpp"
#include "obs/recorder.hpp"
#include "topo/domains.hpp"

namespace speedbal {

/// Tunables of the user-level speed balancer (Section 5 of the paper).
struct SpeedBalanceParams {
  /// Balance interval B; each per-core balancer sleeps B plus a uniform
  /// random extra of up to one interval (breaks migration cycles). The
  /// paper uses 100 ms for all reported experiments.
  SimTime interval = msec(100);
  /// Speed threshold T_s: only pull from cores with s_k / s_global < T_s;
  /// guards against measurement noise causing spurious migrations.
  double threshold = 0.9;
  /// A core involved in a migration is blocked as a source/destination for
  /// this many balance intervals, so speeds are never stale when compared.
  int post_migration_block = 2;
  /// Block migrations that cross a NUMA boundary (the paper's default on
  /// Barcelona; Section 5.2).
  bool block_numa = true;
  /// Most distant scheduling-domain level across which migrations are
  /// permitted at all ("migrations at any scheduling domain level can be
  /// blocked altogether", Section 5.2). Cache restricts pulls to
  /// cache-sharing cores; Numa (default) allows everything block_numa does
  /// not already exclude.
  DomainLevel max_migration_level = DomainLevel::Numa;
  /// Scale applied to the post-migration block when the two cores share a
  /// cache ("speedbalancer can enable migrations to happen twice as often
  /// between cores that share a cache", Section 5.2). 0.5 = twice as often;
  /// the paper's reported experiments use a uniform interval (1.0).
  double shared_cache_block_scale = 1.0;
  /// Weight a thread's measured speed down when its core's SMT sibling
  /// context is also busy (the Nehalem adaptation the paper lists as future
  /// work in Section 6: "a task running on a 'core' where both hardware
  /// contexts are utilized will run slower than when running on a core by
  /// itself"). Off by default, as in the paper.
  bool smt_aware = false;
  /// Relative standard deviation of multiplicative noise applied to each
  /// measured thread speed, modeling taskstats timing jitter (Section 5.2:
  /// "there is a certain amount of noise in the measurements"; the speed
  /// threshold T_s exists to tolerate it). Real measurements are never
  /// exactly equal; a small nonzero default also keeps the simulated
  /// balancer from deadlocking on exact speed ties, which cannot happen on
  /// real hardware.
  double measurement_noise = 0.02;
  /// Delay before the balancer starts (the paper's startup delay while the
  /// PIDs of the application's threads appear in /proc).
  SimTime startup_delay = 0;
  /// Weight each thread's measured speed by its core's relative clock
  /// speed — the paper's adaptation for asymmetric systems (Sections 4/5:
  /// "can be easily adapted to capture behavior in asymmetric systems" by
  /// "weighting ... with the relative core speed"). A no-op on homogeneous
  /// machines.
  bool scale_by_clock = true;
  /// Measure each thread's speed over its *demand* time (elapsed minus time
  /// spent blocked) instead of wall time — the serving adaptation. The
  /// paper's SPMD threads are always runnable, so t_exec / t_real is core
  /// speed; a request-serving worker sleeps whenever its queue is empty,
  /// and with wall-time measurement that idleness reads as slowness,
  /// driving migrations toward (not away from) genuinely slow cores.
  /// Threads with negligible demand in an interval carry no speed signal
  /// and are skipped. Off by default (the paper's batch semantics).
  bool demand_scaled = false;
  /// When false, attach() pins (round-robin across the managed cores, the
  /// paper's initial distribution) and initializes state but schedules no
  /// periodic balancer wake-ups — tests drive balance_once directly.
  bool automatic = true;
};

/// The paper's contribution: a user-level, distributed balancer that
/// equalizes thread *speed* (t_exec / t_real) instead of run-queue length.
/// One balancer runs per managed core; on each wake-up it computes every
/// managed thread's speed over the elapsed interval, the local core speed
/// (average of its threads), and the global core speed (average over
/// cores). If the local core is faster than the global average it pulls the
/// least-migrated thread from a suitable slower core. Migration uses
/// sched_setaffinity semantics (hard pin), so the kernel balancer never
/// undoes its placements.
class SpeedBalancer : public Balancer {
 public:
  /// `managed` are the application's threads; `cores` the user-requested
  /// cores to balance over (the paper's "user requested cores").
  SpeedBalancer(SpeedBalanceParams params, std::vector<Task*> managed,
                std::vector<CoreId> cores);

  void attach(Simulator& sim) override;
  std::string name() const override { return "speed"; }

  /// Register a thread spawned after attach (dynamic parallelism; footnote
  /// 6 of the paper: the real tool polls /proc for new task relationships).
  /// The thread is pinned to the currently least-loaded managed core.
  void add_managed(Task& t);

  /// Exposed for tests: run one balancing pass for the given local core.
  void balance_once(CoreId local);

  /// Attach an observability recorder: every balance pass then appends a
  /// speed-timeline sample (per-core speeds, global average, queue lengths,
  /// threshold state) and logs why each candidate pull was taken or
  /// rejected. Null (the default) disables recording entirely.
  void set_recorder(obs::RunRecorder* rec) {
    recorder_ = rec;
    if (rec != nullptr)
      rec->set_cores(std::vector<int>(cores_.begin(), cores_.end()));
  }

  /// Observer invoked with every balance pass's speed sample, before the
  /// pass's pull decision — the adaptive controller's feed. Fires whether
  /// or not a recorder is attached (and consumes no randomness), so a
  /// controller-driven run behaves identically recorded and bare.
  void set_sample_observer(std::function<void(const obs::SpeedSample&)> fn) {
    sample_observer_ = std::move(fn);
  }

  /// Retune the live constants (the adaptive controller's actuator). Takes
  /// effect immediately for decision logic; a changed interval governs each
  /// balancer's next self-reschedule. Callable mid-run from the sample
  /// observer: the observer fires before the pass's decision logic, so a
  /// change applied there governs that same pass.
  void apply_tuning(SimTime interval, double threshold,
                    int post_migration_block, double shared_cache_block_scale) {
    params_.interval = interval;
    params_.threshold = threshold;
    params_.post_migration_block = post_migration_block;
    params_.shared_cache_block_scale = shared_cache_block_scale;
  }

  /// The constants currently in force (tests + the adaptive controller).
  const SpeedBalanceParams& params() const { return params_; }

  /// Exposed for tests: the global speed as of the last pass.
  double last_global_speed() const { return speeds_.global(); }

  /// Exposed for tests: whether `core` is inside its post-migration block.
  bool is_blocked(CoreId core) const;

 private:
  struct TaskSnap {
    SimTime exec = 0;
    SimTime sleep = 0;
  };

  void balancer_wake(CoreId local);
  /// Measure all managed thread speeds since the last snapshot for `local`'s
  /// balancer into speeds_ (cores with no managed threads report full
  /// nominal speed: a thread moved there could run unimpeded). Returns the
  /// number of cores measured.
  int measure_core_speeds(CoreId local);

  SpeedBalanceParams params_;
  std::vector<Task*> managed_;
  std::vector<CoreId> cores_;
  Simulator* sim_ = nullptr;
  Rng rng_{0};

  // Per-balancer measurement snapshots indexed [local][task id]; grown
  // lazily as tasks appear. Dense vectors: one balance pass touches every
  // managed thread, so map lookups per thread were pure overhead.
  std::vector<std::vector<TaskSnap>> snapshots_;
  std::vector<SimTime> snapshot_time_;
  // Section-5 decision state shared by every per-core balancer: each core's
  // last migration (cooldown) and each task's last pull (hot-potato guard).
  PullRule rule_;
  // Per-pass measurement, reused across passes.
  SpeedAggregate speeds_;
  obs::RunRecorder* recorder_ = nullptr;
  std::function<void(const obs::SpeedSample&)> sample_observer_;
};

}  // namespace speedbal
