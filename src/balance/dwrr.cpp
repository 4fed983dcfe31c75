#include "balance/dwrr.hpp"

#include <algorithm>
#include <limits>

namespace speedbal {
namespace {

/// Granularity at which round accounting is checked (the timer tick).
constexpr SimTime kTick = msec(10);

}  // namespace

DwrrBalancer::DwrrBalancer(DwrrParams params) : params_(params) {}

void DwrrBalancer::attach(Simulator& sim) {
  sim_ = &sim;
  for (CoreId c = 0; c < sim.num_cores(); ++c) round_[c] = 0;
  if (params_.automatic) sim.schedule_after(kTick, [this] { tick(); });
}

int DwrrBalancer::round(CoreId c) const { return round_.at(c); }

void DwrrBalancer::tick() {
  sim_->sync_all_accounting();
  expire_over_budget();

  // Round balancing for every CPU whose active set is empty: steal an
  // unfinished task from another CPU, or advance the round if expired work
  // is waiting locally. A CPU with no tasks at all only steals — it has no
  // round to finish, so it must not race its round number ahead.
  for (CoreId c = 0; c < sim_->num_cores(); ++c) {
    if (!sim_->core_online(c)) continue;  // Never steal into a dead core.
    if (core_has_active(c)) continue;
    if (try_steal(c)) continue;
    if (core_has_parked(c)) advance_round(c);
  }
  if (params_.automatic) sim_->schedule_after(kTick, [this] { tick(); });
}

void DwrrBalancer::expire_over_budget() {
  sim_->for_each_live_task([&](Task* t) {
    if (t->hard_pinned()) return;
    auto& ts = tasks_[t->id()];
    if (t->state() == TaskState::Sleeping || t->state() == TaskState::Finished)
      return;
    // A task woken while we considered it expired stays expired until its
    // CPU's round advances (re-park it).
    if (ts.expired && t->state() != TaskState::Parked) {
      sim_->park_task(*t);
      return;
    }
    if (ts.expired) return;
    if (t->total_exec() - ts.round_start_exec >= params_.round_slice) {
      ts.expired = true;
      if (t->state() == TaskState::Runnable || t->state() == TaskState::Running)
        sim_->park_task(*t);
    }
  });
}

bool DwrrBalancer::core_has_active(CoreId c) const {
  bool active = false;
  sim_->for_each_task_on(c, [&](const Task* t) {
    if (!t->hard_pinned()) active = true;
  });
  return active;
}

bool DwrrBalancer::core_has_parked(CoreId c) const {
  bool parked = false;
  sim_->for_each_live_task([&](const Task* t) {
    if (t->state() == TaskState::Parked && t->core() == c && !t->hard_pinned())
      parked = true;
  });
  return parked;
}

bool DwrrBalancer::try_steal(CoreId c) {
  // Steal an unfinished-round task from another CPU with round <= ours (a
  // fully idle CPU — nothing queued, nothing expired — may steal from any
  // round and joins the source's round). Prefer queued (non-running) tasks
  // from the most loaded queue; fall back to preempting a running task
  // (DWRR migrates aggressively to enforce global rounds).
  const bool fully_idle = !core_has_parked(c);
  CoreId best_src = -1;
  Task* best = nullptr;
  bool best_running = true;
  std::size_t best_load = 0;
  for (CoreId src = 0; src < sim_->num_cores(); ++src) {
    if (src == c) continue;
    if (!fully_idle && round_.at(src) > round_.at(c)) continue;
    const std::size_t load = sim_->core(src).queue().nr_running();
    sim_->for_each_task_on(src, [&](Task* t) {
      if (t->hard_pinned() || !t->allowed_on(c)) return;
      const auto it = tasks_.find(t->id());
      if (it != tasks_.end() && it->second.expired) return;
      const bool running = t->state() == TaskState::Running;
      const bool better =
          best == nullptr || (best_running && !running) ||
          (best_running == running && load > best_load);
      if (better) {
        best = t;
        best_running = running;
        best_load = load;
        best_src = src;
      }
    });
  }
  if (best == nullptr) return false;
  if (fully_idle) round_[c] = std::max(round_[c], round_.at(best_src));
  sim_->migrate(*best, c, MigrationCause::Dwrr);
  return true;
}

int DwrrBalancer::min_active_round() const {
  int min_round = std::numeric_limits<int>::max();
  for (CoreId c = 0; c < sim_->num_cores(); ++c) {
    // Only CPUs that still hold work for their round constrain the others.
    bool has_work = core_has_active(c);
    if (!has_work) {
      sim_->for_each_live_task([&](const Task* t) {
        if (t->state() == TaskState::Parked && t->core() == c) has_work = true;
      });
    }
    if (has_work) min_round = std::min(min_round, round_.at(c));
  }
  return min_round;
}

void DwrrBalancer::advance_round(CoreId c) {
  // Global fairness invariant: a CPU may advance only from the minimum
  // round, keeping all CPU round numbers within one of each other.
  const int min_round = min_active_round();
  if (min_round != std::numeric_limits<int>::max() && round_.at(c) > min_round)
    return;
  ++round_[c];
  // Expired tasks parked on this CPU re-enter the (new) round.
  sim_->for_each_live_task([&](Task* t) {
    if (t->core() != c) return;
    auto it = tasks_.find(t->id());
    if (it == tasks_.end() || !it->second.expired) return;
    it->second.expired = false;
    it->second.round_start_exec = t->total_exec();
    if (t->state() == TaskState::Parked) sim_->unpark_task(*t);
  });
}

}  // namespace speedbal
