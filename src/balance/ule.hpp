#pragma once

#include "balance/balancer.hpp"

namespace speedbal {

/// Tunables of the FreeBSD ULE push-migration model (Section 2).
struct UleParams {
  /// Minimum queue-length difference before a migration happens. The
  /// FreeBSD 7.2 default does not move threads "when a static balance is
  /// not attainable" (a difference of one); kern.sched.steal_thresh=1
  /// lowers this, which the paper experimented with.
  int steal_thresh = 2;
  /// When false, attach() only records the simulator; tests call push_once().
  bool automatic = true;
};

/// FreeBSD ULE scheduler's long-term balancer: a periodic push migration
/// that moves one thread from the most loaded queue to the least loaded
/// queue. With default settings it never resolves a one-task imbalance, so
/// for SPMD workloads it behaves like static pinning (the paper's Fig. 3
/// FreeBSD line tracks PINNED).
class UleBalancer : public Balancer {
 public:
  explicit UleBalancer(UleParams params = {});

  void attach(Simulator& sim) override;
  std::string name() const override { return "ule"; }

  /// Exposed for tests: run one push pass now.
  void push_once();

 private:
  void tick();

  UleParams params_;
  Simulator* sim_ = nullptr;
  std::vector<Task*> scratch_;  // Reuse buffer for movable-task scans.
};

}  // namespace speedbal
