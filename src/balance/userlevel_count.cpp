#include "balance/userlevel_count.hpp"

#include <limits>

namespace speedbal {

CountBalancer::CountBalancer(CountBalanceParams params,
                             std::vector<Task*> managed,
                             std::vector<CoreId> cores)
    : params_(params), managed_(std::move(managed)), cores_(std::move(cores)) {}

void CountBalancer::attach(Simulator& sim) {
  sim_ = &sim;
  rng_ = sim.rng().fork();
  pin_round_robin(sim, managed_, cores_, 0, MigrationCause::Affinity);
  if (!params_.automatic) return;
  for (CoreId c : cores_) {
    const SimTime jitter =
        static_cast<SimTime>(rng_.uniform_u64(static_cast<std::uint64_t>(params_.interval)));
    sim.schedule_after(params_.interval + jitter, [this, c] { balancer_wake(c); });
  }
}

void CountBalancer::balancer_wake(CoreId local) {
  balance_once(local);
  const SimTime jitter =
      static_cast<SimTime>(rng_.uniform_u64(static_cast<std::uint64_t>(params_.interval)));
  sim_->schedule_after(params_.interval + jitter, [this, local] { balancer_wake(local); });
}

std::map<CoreId, int> CountBalancer::count_per_core() const {
  std::map<CoreId, int> counts;
  for (CoreId c : cores_) counts[c] = 0;
  for (const Task* t : managed_)
    if (t->state() != TaskState::Finished) ++counts[t->core()];
  return counts;
}

void CountBalancer::balance_once(CoreId local) {
  if (!sim_->core_online(local)) return;  // Hotplugged out; pass idles.
  const auto counts = count_per_core();
  const auto it = counts.find(local);
  if (it == counts.end()) return;
  const int local_count = it->second;

  const SimTime block = params_.post_migration_block * params_.interval;
  const auto blocked = [&](CoreId c) {
    return cooldown_.involved_within(c, sim_->now(), block);
  };
  if (blocked(local)) return;

  // Pull whenever a remote queue holds more managed threads than we do —
  // including the one-task imbalance the kernel never fixes. Repeatedly
  // migrating that one thread rotates the slow-queue status (the behaviour
  // the paper attributes to DWRR in Section 4), which is as close to speed
  // balancing as a count metric can get.
  CoreId source = -1;
  int source_count = local_count;
  for (const auto& [c, n] : counts) {
    if (c == local || blocked(c)) continue;
    if (params_.block_numa && !sim_->topo().same_numa(local, c)) continue;
    if (n < 2) continue;  // Never empty a queue into ping-pong.
    if (n > source_count) {
      source_count = n;
      source = c;
    }
  }
  if (source < 0) return;

  Task* victim = nullptr;
  for (Task* t : managed_) {
    if (t->state() == TaskState::Finished || t->core() != source) continue;
    if (victim == nullptr || t->migrations() < victim->migrations()) victim = t;
  }
  if (victim == nullptr) return;
  if (!sim_->set_affinity(*victim, 1ULL << local, /*hard_pin=*/true,
                          MigrationCause::Affinity))
    return;  // Local core hotplugged out mid-pass.
  cooldown_.record_pull(source, local, victim->id(), sim_->now());
}

}  // namespace speedbal
