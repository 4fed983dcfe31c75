#pragma once

#include <map>
#include <vector>

#include "balance/balancer.hpp"
#include "balance/pull_rule.hpp"

namespace speedbal {

/// Tunables of the count balancer; mirrors SpeedBalanceParams so that
/// ablation comparisons change exactly one thing: the balanced metric.
struct CountBalanceParams {
  SimTime interval = msec(100);
  int post_migration_block = 2;
  bool block_numa = true;
  bool automatic = true;
};

/// Ablation baseline for the paper's central idea: the same user-level
/// machinery as SpeedBalancer — per-core balancers, random wake jitter,
/// round-robin initial pinning, sched_setaffinity migrations, post-
/// migration blocks — but balancing the *number of managed threads per
/// core* instead of their measured speed. This is what a user-level
/// implementation of queue-length balancing looks like: it equalizes
/// counts and then stops, so it can never react to a core that is slow for
/// any reason other than queue length (unrelated competitors, clock
/// asymmetry, SMT sharing).
class CountBalancer : public Balancer {
 public:
  CountBalancer(CountBalanceParams params, std::vector<Task*> managed,
                std::vector<CoreId> cores);

  void attach(Simulator& sim) override;
  std::string name() const override { return "user-count"; }

  /// Exposed for tests: one balancing pass for `local`.
  void balance_once(CoreId local);

 private:
  void balancer_wake(CoreId local);
  std::map<CoreId, int> count_per_core() const;

  CountBalanceParams params_;
  std::vector<Task*> managed_;
  std::vector<CoreId> cores_;
  Simulator* sim_ = nullptr;
  Rng rng_{0};
  PullRule cooldown_;  // Post-migration block bookkeeping only.
};

}  // namespace speedbal
