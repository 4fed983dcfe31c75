#pragma once

#include <memory>
#include <span>
#include <vector>

#include "balance/adaptive.hpp"
#include "balance/dwrr.hpp"
#include "balance/linux_load.hpp"
#include "balance/speed.hpp"
#include "balance/ule.hpp"
#include "core/experiment.hpp"
#include "hetero/share.hpp"
#include "obs/recorder.hpp"

namespace speedbal::serve {

/// Parameters of one machine's balancer stack — the per-node slice of
/// ServeConfig, split out so the cluster layer can instantiate the same
/// stack on every node simulator.
struct PolicyStackParams {
  Policy policy = Policy::Speed;
  SpeedBalanceParams speed;
  LinuxLoadParams linux_load;
  DwrrParams dwrr;
  UleParams ule;
  hetero::ShareParams share;
  /// SPEED only: when enabled, attach_user wraps the speed balancer in the
  /// adaptive tuning controller (speed above stays the base constant-set).
  AdaptiveParams adaptive;
};

/// The one balancer attachment pattern of every simulated machine — the
/// batch experiment, the serving runtime, and each cluster node: a
/// kernel-level policy (Linux load balancer for SPEED/LOAD/PINNED/SHARE,
/// DWRR/ULE replacing it, NONE bare) plus an optional user-level balancer
/// over the application's threads or the worker pool. Pools opened after
/// attach (migrated-in) register through manage(), which mirrors what the
/// real tool does when new PIDs appear in /proc (paper footnote 6).
class PolicyStack {
 public:
  explicit PolicyStack(PolicyStackParams params) : params_(std::move(params)) {}

  /// The machine's simulator parameters under `policy`. FreeBSD's
  /// sched_pickcpu consults the current queue states at thread creation;
  /// the stale-snapshot fork placement is specific to the Linux fork path
  /// (the paper's footnote 1). Without it ULE starts balanced and behaves
  /// like static pinning, as the paper observes (Fig. 3).
  static SimParams sim_params(Policy policy, SimParams sim) {
    if (policy == Policy::Ule) sim.load_snapshot_period = 0;
    return sim;
  }

  /// PINNED and SHARE launch their workers round-robin-placed (SHARE never
  /// migrates — work follows the weights instead); everything else lets
  /// fork placement decide (the balancer under test then moves them).
  bool round_robin_launch() const {
    return params_.policy == Policy::Pinned || params_.policy == Policy::Share;
  }

  /// Attach the kernel-level policy. Call once, before any pool opens.
  void attach_kernel(Simulator& sim);

  /// SHARE partitions work instead of moving threads, so its balancer must
  /// exist before an SPMD app launches (launch-time phase work queries it):
  /// under SHARE this creates it over `cores` and returns it, and
  /// attach_user reuses it. Null under every other policy.
  PhasePartitioner* partitioner(const std::vector<CoreId>& cores);

  /// Attach the user-level policy over the initial worker set. Call once,
  /// after the app launched or the first pool opened.
  void attach_user(Simulator& sim, std::vector<Task*> workers,
                   std::vector<CoreId> cores, obs::RunRecorder* rec);

  /// Register workers created after attach_user (a pool migrating in):
  /// SPEED hard-pins each to the currently least-loaded managed core,
  /// PINNED and SHARE continue their round-robin pinning, the rest leave
  /// placement to the kernel-level policy.
  void manage(Simulator& sim, std::span<Task* const> workers);

  SpeedBalancer* speed() { return speed_.get(); }
  /// Non-null only with adaptive SPEED: the serving runtime feeds its
  /// queue-pressure probe here; speed() stays null in that configuration
  /// (the controller owns the inner balancer).
  AdaptiveSpeedBalancer* adaptive() { return adaptive_.get(); }
  /// Non-null only under Policy::Share: the serving runtime reads its
  /// epoch-adopted per-core shares (via set_sink) to weight dispatch.
  hetero::ShareBalancer* share() { return share_.get(); }

 private:
  PolicyStackParams params_;
  std::vector<CoreId> cores_;
  std::size_t pin_cursor_ = 0;
  std::unique_ptr<LinuxLoadBalancer> linux_lb_;
  std::unique_ptr<DwrrBalancer> dwrr_;
  std::unique_ptr<UleBalancer> ule_;
  std::unique_ptr<SpeedBalancer> speed_;
  std::unique_ptr<AdaptiveSpeedBalancer> adaptive_;
  std::unique_ptr<hetero::ShareBalancer> share_;
};

}  // namespace speedbal::serve
