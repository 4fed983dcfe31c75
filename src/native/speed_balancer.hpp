#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "balance/pull_rule.hpp"
#include "native/affinity.hpp"
#include "native/cpu_topology.hpp"
#include "native/procfs.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"

namespace speedbal::native {

/// Configuration of the real user-level speed balancer (Section 5.2).
struct NativeBalancerConfig {
  std::chrono::milliseconds interval{100};  ///< Balance interval B.
  double threshold = 0.9;                   ///< T_s.
  int post_migration_block = 2;             ///< In balance intervals.
  /// Cores to balance over; empty means every online CPU.
  CpuSet cores;
  bool block_numa = true;
  /// Delay before the first pass, letting /proc catch up with the threads
  /// the target just spawned (the paper's startup delay).
  std::chrono::milliseconds startup_delay{100};
  bool initial_round_robin = true;
  std::uint64_t seed = 1;

  /// Bounded retry-with-backoff for transient sched_setaffinity failures.
  RetryPolicy affinity_retry;
  /// Fault-injection shim consulted before every affinity call and (routed
  /// into the Procfs reader) every stat read; null = real syscalls only.
  perturb::FaultInjector* fault_injector = nullptr;
  /// A core whose pulls fail with EINVAL (hotplugged out from under us) is
  /// quarantined for this many passes before being probed again.
  int dead_core_backoff_passes = 10;
};

/// The paper's speedbalancer as a real POSIX program component: monitors
/// the threads of a target process through /proc, pins them round-robin at
/// startup, and periodically measures speeds (delta CPU time / delta wall
/// time) into per-CPU arrays and pulls, with sched_setaffinity, the thread
/// the simulator's Section-5 rule (balance/pull_rule.hpp) picks, so the same
/// state logs the same reasons. Quarantined and NUMA-crossing cores are its
/// vetoes; there is no domain block and no shared-cache block scaling.
///
/// The paper runs one balancer thread per core with no shared state except
/// the global speed; within a single process that distribution only adds
/// scheduling jitter, so this implementation performs the per-core passes
/// sequentially in a randomized order each interval — the per-core decision
/// rule is identical.
class NativeSpeedBalancer {
 public:
  NativeSpeedBalancer(pid_t target, NativeBalancerConfig config,
                      Procfs procfs = Procfs(),
                      SysTopology topo = read_sys_topology());

  /// Discover the target's threads and pin them round-robin (idempotent;
  /// picks up newly spawned threads on each call).
  void pin_round_robin();

  /// One measurement + balancing pass over all cores; returns the number
  /// of migrations performed, or -1 once the target has exited.
  int step();

  /// Blocking loop: pin, then step every interval until the target exits.
  void run();

  /// Background-thread variants of run().
  void start();
  void stop();

  std::int64_t migrations() const { return migrations_; }
  /// Speeds from the most recent pass, indexed by CPU up to the highest
  /// managed one (for tests/telemetry).
  const std::vector<double>& core_speeds() const { return speeds_.speed(); }
  double global_speed() const { return speeds_.global(); }
  /// Cores currently quarantined after EINVAL pull failures (hotplugged
  /// out); probed again after dead_core_backoff_passes passes.
  std::vector<int> quarantined_cores() const;
  /// Passes skipped because the speed sample was incomplete (procfs reads
  /// failed) and pulls that failed permanently, for tests/telemetry.
  std::int64_t sample_failures() const { return sample_failures_; }
  std::int64_t affinity_failures() const { return affinity_failures_; }

  /// Attach an observability recorder: every step() then appends a speed
  /// timeline sample, logs each pull decision with its reason, and emits an
  /// instant trace event per migration. Timestamps are microseconds of wall
  /// time since this call. The recorder is internally synchronized, so it
  /// may be read/exported after stop() regardless of the worker thread.
  void set_recorder(obs::RunRecorder* rec);

 private:
  struct TidState {
    long last_ticks = 0;
    int migrations = 0;
  };

  /// Fill speeds_ from the tick deltas; false until two samples.
  bool measure();

  pid_t target_;
  NativeBalancerConfig config_;
  Procfs procfs_;
  SysTopology topo_;
  std::vector<int> cores_;
  Rng rng_;

  std::map<pid_t, TidState> tids_;
  std::chrono::steady_clock::time_point last_sample_{};
  bool have_sample_ = false;

  PullRule rule_;
  // Per-pass measurement over CPUs [0, highest managed].
  SpeedAggregate speeds_;
  std::int64_t migrations_ = 0;
  /// Quarantine bookkeeping: core -> pass index at which to probe again.
  std::map<int, std::int64_t> dead_until_;
  std::int64_t pass_count_ = 0;
  std::int64_t sample_failures_ = 0;
  std::int64_t affinity_failures_ = 0;

  obs::RunRecorder* recorder_ = nullptr;
  std::chrono::steady_clock::time_point trace_origin_{};

  std::thread worker_;
  std::atomic<bool> stopping_{false};
};

}  // namespace speedbal::native
