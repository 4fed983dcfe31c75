#pragma once

#include <map>

#include "balance/balancer.hpp"

namespace speedbal {

/// Tunables for Distributed Weighted Round-Robin (Li et al., modeled from
/// the description in Section 2 of the paper).
struct DwrrParams {
  /// Round slice: CPU time each task may consume per round (100 ms in the
  /// 2.6.22-based implementation the paper evaluates).
  SimTime round_slice = msec(100);
  /// When false, attach() only initializes state; tests call tick_once().
  bool automatic = true;
};

/// Kernel-level round-based fair scheduler: each CPU keeps a round number
/// and active/expired queues. A task that exhausts its round slice moves to
/// the expired queue (modeled by parking it). When a CPU has no active
/// tasks left it performs *round balancing*: it steals an unfinished task
/// from another CPU (possibly the one currently running there — DWRR is not
/// shy about migrations), or, if none exists, advances its round; rounds
/// across CPUs differ by at most one. DWRR is application-unaware: it
/// uniformly balances every task in the system.
class DwrrBalancer : public Balancer {
 public:
  explicit DwrrBalancer(DwrrParams params = {});

  void attach(Simulator& sim) override;
  std::string name() const override { return "dwrr"; }

  /// Exposed for tests.
  int round(CoreId c) const;
  void tick_once() { tick(); }

 private:
  struct Budget {
    SimTime round_start_exec = 0;
    bool expired = false;
  };

  void tick();
  void expire_over_budget();
  bool core_has_active(CoreId c) const;
  bool core_has_parked(CoreId c) const;
  bool try_steal(CoreId c);
  void advance_round(CoreId c);
  int min_active_round() const;

  DwrrParams params_;
  Simulator* sim_ = nullptr;
  std::map<TaskId, Budget> tasks_;
  std::map<CoreId, int> round_;
};

}  // namespace speedbal
