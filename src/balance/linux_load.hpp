#pragma once

#include <cstdint>
#include <vector>

#include "balance/balancer.hpp"
#include "topo/domains.hpp"

namespace speedbal {

/// Tunables of the modeled Linux 2.6.28 load balancer (Section 2 of the
/// paper). Per-domain balance intervals and imbalance percentages come from
/// the DomainTree; these are the remaining kernel knobs.
struct LinuxLoadParams {
  /// A task that executed on its core within this window is "cache hot" and
  /// resists migration.
  SimTime cache_hot_time = msec(5);
  /// Failed balance attempts on a domain before cache-hot tasks may move.
  int failures_before_hot = 2;
  /// When false, attach() initializes state but schedules no periodic ticks
  /// and registers no idle hook (the new-idle pull) — tests drive
  /// rebalance_core directly.
  bool automatic = true;
};

/// Queue-length-based hierarchical load balancing: the default Linux policy
/// the paper calls LOAD. Periodically, every core walks its scheduling
/// domains bottom-up; at each domain whose interval elapsed it compares its
/// group's load against the busiest sibling group and pulls
/// (busiest - local) / 2 tasks, subject to the imbalance percentage, the
/// never-move-running rule, and cache-hot resistance. Integer arithmetic
/// means a 2-vs-1 imbalance is never corrected — the paper's motivating
/// "three threads on two cores" case.
class LinuxLoadBalancer : public Balancer {
 public:
  explicit LinuxLoadBalancer(LinuxLoadParams params = {});

  void attach(Simulator& sim) override;
  std::string name() const override { return "linux-load"; }

  /// Exposed for tests: run one balancing pass for `core` right now.
  void rebalance_core(CoreId core);

  /// Exposed for tests: the new-idle pull for `core`.
  void newidle_balance(CoreId core);

 private:
  struct DomainState {
    SimTime last_balance = 0;
  };

  void tick(CoreId core);
  bool balance_domain(CoreId core, const Domain& dom);
  int group_of(const Domain& dom, CoreId core) const;
  int group_load(const Domain& dom, int group) const;
  bool try_pull(CoreId dest, CoreId source, bool allow_hot);

  LinuxLoadParams params_;
  Simulator* sim_ = nullptr;
  // Indexed [core][domain chain position].
  std::vector<std::vector<DomainState>> state_;
  std::vector<int> failures_;  // nr_balance_failed per core.
  std::vector<Task*> scratch_;  // Reuse buffer for movable-task scans.
};

}  // namespace speedbal
