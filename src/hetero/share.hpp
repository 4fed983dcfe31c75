#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "app/partition.hpp"
#include "balance/balancer.hpp"
#include "obs/recorder.hpp"

namespace speedbal::hetero {

/// Tunables of the speed-weighted work-partitioning policy (SHARE). Where
/// the paper's speed balancer moves *threads* toward fast cores, SHARE keeps
/// threads pinned and moves *work*: it EWMA-smooths each core's measured
/// speed and repartitions fractional phase shares proportionally, so a
/// 3x-faster core receives 3x the work and every thread reaches the barrier
/// together. On asymmetric machines this is the analytic optimum
/// (model::optimal_shares); the Count source keeps shares uniform forever —
/// the queue-length-balancing baseline, which the paper shows is maximally
/// wrong on such machines.
struct ShareParams {
  /// What drives the target shares: measured per-core speed (the SHARE
  /// policy) or nothing at all (uniform shares — the count-balanced
  /// baseline an oblivious queue-length balancer converges to, since every
  /// core holds one pinned thread).
  enum class Source { Speed, Count };
  Source source = Source::Speed;
  /// Repartition epoch length; one global timer (unlike the per-core
  /// distributed speed balancer — shares are a global quantity).
  SimTime interval = msec(100);
  /// EWMA smoothing factor on measured core speed: s <- a*new + (1-a)*old.
  /// The first measurement seeds the EWMA directly.
  double ewma_alpha = 0.3;
  /// Floor on any core's share. Keeps slow cores participating (so their
  /// speed stays measurable) and bounds the damage of a bad measurement.
  /// Clamped cores hold the floor; the rest renormalize above it.
  double min_share = 0.02;
  /// Adopt a new partition only when some core's share would move by at
  /// least this much; smaller deltas are measurement noise, and
  /// repartitioning on them churns work distribution for nothing.
  double hysteresis = 0.02;
  /// Relative stddev of multiplicative noise on measured core speeds,
  /// modeling taskstats timing jitter (same rationale as
  /// SpeedBalanceParams::measurement_noise).
  double measurement_noise = 0.02;
  /// When false, attach() pins and initializes state but schedules no
  /// epochs — tests drive epoch_once directly.
  bool automatic = true;
};

/// The SHARE balancer: a Balancer (pins threads, runs a periodic epoch) and
/// a PhasePartitioner (answers SpmdApp's per-phase work split). Each epoch
/// it measures per-core throughput (summed exec-time deltas over the epoch,
/// scaled by clock speed), EWMA-smooths it, computes speed-proportional
/// target shares with a min-share floor, and adopts them if the change
/// clears the hysteresis band. Every epoch appends a ShareRecord to the
/// recorder (obsquery --shares) and, when adopted, pushes the per-core
/// shares to an optional sink (the serving runtime's weighted dispatcher).
///
/// Shares are indexed by position in the managed core list and always sum
/// to 1; thread_share distributes a core's share evenly over the threads
/// round-robin-pinned to it, renormalized over occupied cores so thread
/// shares also sum to 1 for any nthreads.
class ShareBalancer : public Balancer, public PhasePartitioner {
 public:
  ShareBalancer(ShareParams params, std::vector<CoreId> cores);

  /// The application threads whose work the partition governs. Must be
  /// called before attach; threads are round-robin hard-pinned across the
  /// managed cores at attach time and never migrated.
  void set_managed(std::vector<Task*> threads);

  void attach(Simulator& sim) override;
  std::string name() const override { return "share"; }

  /// Safe before attach (returns the uniform bootstrap partition), so the
  /// app's launch-time phase_work calls are well-defined.
  double thread_share(int thread_index, int nthreads) override;

  /// Exposed for tests: run one repartition epoch.
  void epoch_once();

  /// Every epoch then appends a ShareRecord (obsquery --shares).
  void set_recorder(obs::RunRecorder* rec) { recorder_ = rec; }

  /// Called with the per-core shares (managed-core order) each time a new
  /// partition is adopted — the serving runtime forwards them to its
  /// weighted dispatcher.
  void set_sink(std::function<void(const std::vector<double>&)> sink) {
    sink_ = std::move(sink);
  }

  /// Current per-core shares, managed-core order; sums to 1.
  const std::vector<double>& core_shares() const { return shares_; }
  /// Smoothed per-core speeds as of the last epoch (0 before the first).
  const std::vector<double>& smoothed_speeds() const { return ewma_; }
  std::int64_t epochs() const { return epoch_; }

 private:
  void epoch_wake();
  std::vector<double> measure_speeds();
  /// Speed-proportional target with the min-share floor applied: clamped
  /// cores hold min_share, the rest split the remainder proportionally.
  /// Sets `floor_clamped` to the number of clamped cores.
  std::vector<double> target_shares(const std::vector<double>& speeds,
                                    int& floor_clamped) const;
  int threads_on(int core_index, int nthreads) const;

  ShareParams params_;
  std::vector<CoreId> cores_;
  /// Position in cores_ by CoreId; -1 for a core SHARE does not manage.
  std::vector<int> core_index_;
  std::vector<Task*> managed_;
  Simulator* sim_ = nullptr;
  Rng rng_{0};

  std::vector<double> shares_;  ///< Adopted partition; uniform at start.
  std::vector<double> ewma_;    ///< Smoothed speeds; empty until measured.
  /// Each managed thread's total_exec at the last epoch, managed_ order.
  std::vector<SimTime> exec_snap_;
  SimTime snapshot_time_ = 0;
  std::int64_t epoch_ = 0;
  obs::RunRecorder* recorder_ = nullptr;
  std::function<void(const std::vector<double>&)> sink_;
};

}  // namespace speedbal::hetero
