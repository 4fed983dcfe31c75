#include "balance/balancer.hpp"

namespace speedbal {

void pin_round_robin(Simulator& sim, std::span<Task* const> tasks,
                     const std::vector<CoreId>& cores, std::size_t first,
                     MigrationCause cause) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const CoreId target = cores[(first + i) % cores.size()];
    sim.set_affinity(*tasks[i], 1ULL << target, /*hard_pin=*/true, cause);
  }
}

namespace balance_detail {

void kernel_movable(const Simulator& sim, CoreId source, CoreId dest,
                    std::vector<Task*>& out) {
  out.clear();
  if (!sim.core_online(dest)) return;  // Never pull into a dead core.
  sim.for_each_task_on(source, [&](Task* t) {
    if (t->state() == TaskState::Running) return;
    if (t->hard_pinned()) return;
    if (!t->allowed_on(dest)) return;
    out.push_back(t);
  });
}

bool cache_hot(const Simulator& sim, const Task& t, SimTime hot_time) {
  return t.last_ran() != kNever && sim.now() - t.last_ran() < hot_time;
}

}  // namespace balance_detail
}  // namespace speedbal
