#pragma once

#include <span>
#include <string>
#include <vector>

#include "app/barrier.hpp"
#include "app/partition.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace speedbal {

/// Description of an SPMD application: `nthreads` threads each execute
/// `phases` phases of `work_per_phase_us` compute separated by barriers
/// (computation / barrier / computation ..., Section 3). The memory fields
/// feed the migration-cost and bandwidth models.
struct SpmdAppSpec {
  std::string name = "spmd";
  int nthreads = 1;
  int phases = 1;
  double work_per_phase_us = 1000.0;
  /// Per-(thread, phase) uniform work perturbation: work * (1 +/- jitter).
  double work_jitter = 0.0;
  /// Persistent application-level imbalance: thread i's work is scaled by
  /// 1 + thread_skew * (i/(n-1) - 1/2), keeping the mean unchanged (at
  /// skew=1 the heaviest thread carries 3x the lightest). Models irregular
  /// domain decompositions; the paper's Section 7 argues oversubscription
  /// plus speed balancing absorbs such imbalance automatically.
  double thread_skew = 0.0;
  BarrierConfig barrier;
  /// Optional fractional work-partitioning hook (the SHARE policy family):
  /// when set, thread i's base work for a phase is
  /// thread_share(i, n) * n * work_per_phase_us — total phase work is the
  /// same as the uniform split, but its distribution follows the
  /// partitioner; thread_skew is superseded, work_jitter still applies.
  /// Queried at every barrier release, so repartitions take effect on the
  /// next phase. Not owned; must outlive the app.
  PhasePartitioner* partitioner = nullptr;
  double mem_footprint_kb = 0.0;
  double mem_intensity = 0.0;
  double mem_bw_demand = 0.0;
};

/// An SPMD application running inside the Simulator. Implements the barrier
/// semantics for all four wait policies and records completion and
/// per-phase timing. One SpmdApp == one parallel job; several can share a
/// machine (multiprogrammed workloads).
class SpmdApp : public TaskClient {
 public:
  /// Initial thread distribution: what the kernel does at fork versus the
  /// round-robin pinning performed by speedbalancer / PINNED configs.
  enum class Placement { LinuxFork, RoundRobin };

  SpmdApp(Simulator& sim, SpmdAppSpec spec);

  /// Create and start all threads, restricted to `cores` (the experiment's
  /// taskset). Must be called exactly once.
  void launch(Placement placement, std::span<const CoreId> cores);

  const SpmdAppSpec& spec() const { return spec_; }
  const std::vector<Task*>& threads() const { return threads_; }
  std::vector<CoreId> cores() const { return cores_; }

  bool finished() const { return finished_; }
  SimTime start_time() const { return start_time_; }
  /// Time of the final barrier release (run completion); kNever until done.
  SimTime completion_time() const { return completion_time_; }
  SimTime elapsed() const {
    return completion_time_ == kNever ? kNever : completion_time_ - start_time_;
  }
  /// Wall-clock duration of each completed phase (barrier-to-barrier).
  const std::vector<SimTime>& phase_times() const { return phase_times_; }

  void on_work_complete(Simulator& sim, Task& task) override;

 private:
  struct ThreadState {
    int index = -1;
    bool in_barrier = false;
    std::uint64_t generation = 0;  ///< Barrier generation it is waiting on.
  };

  double phase_work(int thread_index);
  void arrive(Simulator& sim, Task& task);
  void release(Simulator& sim);

  Simulator& sim_;
  SpmdAppSpec spec_;
  Rng rng_;
  std::vector<Task*> threads_;
  std::vector<ThreadState> states_;
  std::vector<CoreId> cores_;

  int arrived_ = 0;
  std::uint64_t generation_ = 0;  ///< Completed barrier count.
  SimTime start_time_ = 0;
  SimTime last_release_ = 0;
  SimTime completion_time_ = kNever;
  std::vector<SimTime> phase_times_;
  bool finished_ = false;
};

}  // namespace speedbal
