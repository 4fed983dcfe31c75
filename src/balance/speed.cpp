#include "balance/speed.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/log.hpp"

namespace speedbal {
namespace {

/// Speed weight of a thread whose core's SMT sibling context is also busy
/// (read under SpeedBalanceParams::smt_aware).
constexpr double kSmtDiscount = 0.65;

}  // namespace

SpeedBalancer::SpeedBalancer(SpeedBalanceParams params,
                             std::vector<Task*> managed,
                             std::vector<CoreId> cores)
    : params_(params), managed_(std::move(managed)), cores_(std::move(cores)) {}

void SpeedBalancer::attach(Simulator& sim) {
  sim_ = &sim;
  rng_ = sim.rng().fork();

  const auto n = static_cast<std::size_t>(sim.num_cores());
  snapshots_.assign(n, {});
  snapshot_time_.assign(n, SimTime{0});

  // Pin each thread to a core, round-robin across the managed cores, so
  // hardware parallelism is maximally exploited regardless of how the
  // kernel placed the threads at fork (Section 5.2).
  pin_round_robin(sim, managed_, cores_, 0, MigrationCause::SpeedBalancer);

  // One balancer per managed core, each with an independent phase.
  for (CoreId c : cores_) {
    snapshot_time_[c] = sim.now();
    if (!params_.automatic) continue;
    const SimTime jitter =
        static_cast<SimTime>(rng_.uniform_u64(static_cast<std::uint64_t>(params_.interval)));
    sim.schedule_after(params_.interval + jitter,
                       [this, c] { balancer_wake(c); });
  }
}

void SpeedBalancer::add_managed(Task& t) {
  if (sim_ == nullptr) throw std::logic_error("add_managed before attach");
  managed_.push_back(&t);
  CoreId best = cores_.front();
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (CoreId c : cores_) {
    const std::size_t load = sim_->core(c).queue().nr_running();
    if (load < best_load) {
      best_load = load;
      best = c;
    }
  }
  sim_->set_affinity(t, 1ULL << best, /*hard_pin=*/true,
                     MigrationCause::SpeedBalancer);
}

bool SpeedBalancer::is_blocked(CoreId core) const {
  return rule_.involved_within(core, sim_->now(),
                               params_.post_migration_block * params_.interval);
}

void SpeedBalancer::balancer_wake(CoreId local) {
  balance_once(local);
  // Sleep the balance interval plus a random increase of up to one interval
  // (Section 5.1: distributes migration checks and breaks pull cycles).
  const SimTime jitter =
      static_cast<SimTime>(rng_.uniform_u64(static_cast<std::uint64_t>(params_.interval)));
  sim_->schedule_after(params_.interval + jitter, [this, local] { balancer_wake(local); });
}

int SpeedBalancer::measure_core_speeds(CoreId local) {
  sim_->sync_all_accounting();
  auto& snaps = snapshots_[static_cast<std::size_t>(local)];
  if (snaps.size() < static_cast<std::size_t>(sim_->num_tasks()))
    snaps.resize(static_cast<std::size_t>(sim_->num_tasks()));
  const SimTime since = snapshot_time_[static_cast<std::size_t>(local)];
  const SimTime elapsed = std::max<SimTime>(sim_->now() - since, 1);
  speeds_.reset(static_cast<std::size_t>(sim_->num_cores()));

  // Cores occupied by managed threads (for the SMT adaptation).
  std::uint64_t occupied = 0;
  if (params_.smt_aware)
    for (const Task* t : managed_)
      if (t->state() != TaskState::Finished && t->core() >= 0)
        occupied |= 1ULL << t->core();

  // speed_i = t_exec / t_real over the elapsed balance interval (demand
  // time instead of real time when demand_scaled; see SpeedBalanceParams).
  for (Task* t : managed_) {
    if (t->state() == TaskState::Finished) continue;
    const PullThread thread{t->id(), t->core(), t->migrations()};
    auto& snap = snaps[static_cast<std::size_t>(t->id())];
    const SimTime exec = t->total_exec();
    const SimTime delta = exec - snap.exec;
    snap.exec = exec;
    SimTime denom = elapsed;
    if (params_.demand_scaled) {
      const SimTime slept = sim_->total_sleep(*t);
      const SimTime sleep_delta = slept - snap.sleep;
      snap.sleep = slept;
      denom = std::max<SimTime>(elapsed - sleep_delta, 0);
      // Mostly-asleep threads carry no speed signal this interval.
      if (denom < elapsed / 20) {
        speeds_.add(thread);
        continue;
      }
    }
    double s = static_cast<double>(delta) / static_cast<double>(denom);
    if (params_.scale_by_clock) s *= sim_->topo().core(t->core()).clock_scale;
    if (params_.smt_aware) {
      // A hardware context whose sibling is also busy delivers less real
      // progress than its CPU-time share suggests (Section 6, Nehalem).
      const CoreId sib = sim_->topo().core(t->core()).smt_sibling;
      if (sib >= 0 && ((occupied >> sib) & 1ULL) != 0) s *= kSmtDiscount;
    }
    if (params_.measurement_noise > 0.0)
      s = std::max(0.0, s * (1.0 + rng_.normal(0.0, params_.measurement_noise)));
    speeds_.add(thread, s);
  }
  snapshot_time_[static_cast<std::size_t>(local)] = sim_->now();

  // A core hotplugged out of the pool is not measured; an empty one offers
  // a migrated thread its full clock.
  return speeds_.close(
      cores_, [&](CoreId c) { return sim_->core_online(c); },
      [&](CoreId c) {
        return params_.scale_by_clock ? sim_->topo().core(c).clock_scale : 1.0;
      });
}

void SpeedBalancer::balance_once(CoreId local) {
  obs::DecisionRecord base;
  base.ts_us = sim_->now();
  base.local = local;
  obs::DecisionLog* log =
      recorder_ != nullptr ? &recorder_->decisions() : nullptr;
  if (!sim_->core_online(local)) {
    // The core this balancer pulls for is gone; sit the pass out (it keeps
    // ticking — the core may come back).
    base.reason = obs::PullReason::CoreOffline;
    if (log != nullptr) log->add(base);
    return;
  }
  if (measure_core_speeds(local) == 0) return;

  const double global = speeds_.global();
  base.local_speed = speeds_.speed()[static_cast<std::size_t>(local)];
  base.global = global;
  if (recorder_ != nullptr || sample_observer_) {
    obs::SpeedSample s = speeds_.sample(
        sim_->now(), local, cores_, params_.threshold, [&](CoreId c) {
          return static_cast<int>(sim_->core(c).queue().nr_running());
        });
    // The observer (adaptive controller) runs before this pass's decision
    // logic, so a tuning change it applies governs the pass it observed.
    if (sample_observer_) sample_observer_(s);
    if (recorder_ != nullptr) base.sample_seq = recorder_->timeline().add(std::move(s));
  }
  if (global <= 0.0) return;

  const Topology& topo = sim_->topo();
  const auto veto = [&](CoreId c) -> std::optional<obs::PullReason> {
    if (params_.block_numa && !topo.same_numa(local, c))
      return obs::PullReason::NumaBlocked;
    if (sim_->domains().lowest_common_level(topo, local, c) >
        params_.max_migration_level)
      return obs::PullReason::DomainBlocked;
    return std::nullopt;
  };
  const PullLimits limits{params_.threshold,
                          params_.post_migration_block * params_.interval,
                          params_.shared_cache_block_scale,
                          kHotPotatoGuard * params_.interval};
  obs::DecisionRecord pull = rule_.decide(
      base, speeds_.speed(), speeds_.present(), speeds_.threads(),
      sim_->now(), limits, veto,
      [&](CoreId a, CoreId b) { return topo.same_cache(a, b); }, log);
  if (pull.victim < 0) return;

  Task& victim = sim_->task(static_cast<TaskId>(pull.victim));
  const double warm_before = victim.warmup_remaining();
  if (!sim_->set_affinity(victim, 1ULL << local, /*hard_pin=*/true,
                          MigrationCause::SpeedBalancer)) {
    // EINVAL: the local core was hotplugged out between the entry check and
    // the pull. The pass degrades to a no-op rather than wedging.
    pull.reason = obs::PullReason::CoreOffline;
    pull.tie_break = false;
    if (log != nullptr) log->add(pull);
    return;
  }
  // Warmup (cache refill) the migration just charged the victim — the
  // causal cost this decision pays, exported with the decision record.
  pull.warmup_charged_us = victim.warmup_remaining() - warm_before;
  SB_LOG(Debug) << "speedbalancer: pull task " << pull.victim << " from core "
                << pull.source << " (s=" << pull.source_speed << ") to core "
                << local << " (s=" << pull.local_speed
                << ", global=" << global << ")";
  if (log != nullptr) log->add(pull);
  rule_.record_pull(pull.source, local, pull.victim, sim_->now());
}

}  // namespace speedbal
