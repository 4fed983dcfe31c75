#include "balance/linux_load.hpp"

#include <algorithm>
#include <limits>

#include "util/log.hpp"

namespace speedbal {
namespace {

/// Granularity of the per-core balancing check (the timer tick at which
/// rebalance_domains runs; ~10ms on a server HZ=100 kernel).
constexpr SimTime kTick = msec(10);
/// Failed balance attempts on a domain before the migration thread actively
/// pushes the running task of the busiest queue to an idle core.
constexpr int kFailuresBeforePush = 4;

}  // namespace

LinuxLoadBalancer::LinuxLoadBalancer(LinuxLoadParams params)
    : params_(params) {}

void LinuxLoadBalancer::attach(Simulator& sim) {
  sim_ = &sim;
  const int n = sim.num_cores();
  state_.assign(static_cast<std::size_t>(n), {});
  failures_.assign(static_cast<std::size_t>(n), 0);
  for (CoreId c = 0; c < n; ++c)
    state_[static_cast<std::size_t>(c)].resize(sim.domains().domains_for(c).size());

  if (!params_.automatic) return;
  sim.set_idle_hook([this](CoreId c) { newidle_balance(c); });

  // Stagger the per-core ticks so balancing passes do not herd.
  for (CoreId c = 0; c < n; ++c) {
    const SimTime offset = kTick * (c + 1) / (n + 1);
    sim.schedule_after(kTick + offset, [this, c] { tick(c); });
  }
}

void LinuxLoadBalancer::tick(CoreId core) {
  rebalance_core(core);
  sim_->schedule_after(kTick, [this, core] { tick(core); });
}

void LinuxLoadBalancer::rebalance_core(CoreId core) {
  if (!sim_->core_online(core)) return;  // Hotplugged out; tick idles.
  const auto chain = sim_->domains().domains_for(core);
  const bool idle = sim_->core(core).idle();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Domain& dom = sim_->domains().domain(chain[i]);
    auto& ds = state_[static_cast<std::size_t>(core)][i];
    const SimTime interval = idle ? dom.idle_interval : dom.busy_interval;
    if (sim_->now() - ds.last_balance < interval) continue;
    ds.last_balance = sim_->now();
    balance_domain(core, dom);
  }
}

int LinuxLoadBalancer::group_of(const Domain& dom, CoreId core) const {
  for (std::size_t g = 0; g < dom.groups.size(); ++g)
    if (std::find(dom.groups[g].begin(), dom.groups[g].end(), core) !=
        dom.groups[g].end())
      return static_cast<int>(g);
  return -1;
}

int LinuxLoadBalancer::group_load(const Domain& dom, int group) const {
  int load = 0;
  for (CoreId c : dom.groups[static_cast<std::size_t>(group)])
    load += static_cast<int>(sim_->core(c).queue().nr_running());
  return load;
}

bool LinuxLoadBalancer::balance_domain(CoreId core, const Domain& dom) {
  const int lg = group_of(dom, core);
  if (lg < 0) return false;
  const int local_load = group_load(dom, lg);

  int busiest_group = -1;
  int busiest_load = local_load;
  for (std::size_t g = 0; g < dom.groups.size(); ++g) {
    if (static_cast<int>(g) == lg) continue;
    const int load = group_load(dom, static_cast<int>(g));
    if (load > busiest_load) {
      busiest_load = load;
      busiest_group = static_cast<int>(g);
    }
  }
  if (busiest_group < 0) return true;  // We are not the underloaded side.

  // Imbalance-percentage gate: the busiest group must exceed the local load
  // by the domain's tolerance before any migration is considered.
  if (busiest_load * 100 <= local_load * dom.imbalance_pct) return true;

  // Integer arithmetic: how many tasks to move to even the groups out. A
  // one-task difference yields zero — the balance "cannot be improved"
  // (e.g. 3 tasks on 2 cores, Section 2), so Linux leaves it alone.
  const int nr_move = (busiest_load - local_load) / 2;
  if (nr_move == 0) return true;

  // Pull from the most loaded queue of the busiest group onto this core.
  CoreId source = -1;
  std::size_t source_load = 0;
  for (CoreId c : dom.groups[static_cast<std::size_t>(busiest_group)]) {
    const std::size_t load = sim_->core(c).queue().nr_running();
    if (load > source_load) {
      source_load = load;
      source = c;
    }
  }
  if (source < 0) return true;

  auto& fails = failures_[static_cast<std::size_t>(core)];
  const bool allow_hot = fails >= params_.failures_before_hot;
  int moved = 0;
  for (int i = 0; i < nr_move; ++i) {
    if (!try_pull(core, source, allow_hot)) break;
    ++moved;
  }
  if (moved > 0) {
    fails = 0;
    return true;
  }

  ++fails;
  if (fails >= kFailuresBeforePush) {
    // Migration-thread escalation: actively push the running task of the
    // busiest queue to an idle core (it does not finish its quantum).
    Task* victim = sim_->core(source).running();
    if (victim != nullptr && !victim->hard_pinned()) {
      CoreId idle_dest = -1;
      for (CoreId c : dom.cores) {
        if (c != source && sim_->core_online(c) && sim_->core(c).idle() &&
            victim->allowed_on(c)) {
          idle_dest = c;
          break;
        }
      }
      if (idle_dest >= 0) {
        sim_->migrate(*victim, idle_dest, MigrationCause::LinuxPush);
        fails = 0;
        return true;
      }
    }
  }
  return false;
}

bool LinuxLoadBalancer::try_pull(CoreId dest, CoreId source, bool allow_hot) {
  if (source == dest || sim_->num_unpinned_tasks() == 0) return false;
  auto& candidates = scratch_;
  balance_detail::kernel_movable(*sim_, source, dest, candidates);
  if (candidates.empty()) return false;
  // Prefer the most cache-cold task (longest since it last ran).
  std::sort(candidates.begin(), candidates.end(), [](const Task* a, const Task* b) {
    if (a->last_ran() != b->last_ran()) return a->last_ran() < b->last_ran();
    return a->id() < b->id();
  });
  for (Task* t : candidates) {
    if (!allow_hot && balance_detail::cache_hot(*sim_, *t, params_.cache_hot_time))
      continue;
    sim_->migrate(*t, dest, MigrationCause::LinuxPeriodic);
    return true;
  }
  return false;
}

void LinuxLoadBalancer::newidle_balance(CoreId core) {
  // On the idle transition Linux immediately tries to pull one task from
  // the busiest queue within each domain, bottom-up, without waiting for
  // the periodic interval. Cache-hot tasks still resist. With every live
  // task hard-pinned there is nothing it could move.
  if (sim_->num_unpinned_tasks() == 0) return;
  const auto chain = sim_->domains().domains_for(core);
  for (const std::size_t di : chain) {
    const Domain& dom = sim_->domains().domain(di);
    CoreId source = -1;
    std::size_t best = 1;  // Need at least 2 tasks to leave one behind.
    for (CoreId c : dom.cores) {
      if (c == core) continue;
      const std::size_t load = sim_->core(c).queue().nr_running();
      if (load > best) {
        best = load;
        source = c;
      }
    }
    if (source < 0) continue;
    auto& candidates = scratch_;
    balance_detail::kernel_movable(*sim_, source, core, candidates);
    for (Task* t : candidates) {
      if (balance_detail::cache_hot(*sim_, *t, params_.cache_hot_time)) continue;
      sim_->migrate(*t, core, MigrationCause::LinuxNewIdle);
      return;
    }
  }
}

}  // namespace speedbal
