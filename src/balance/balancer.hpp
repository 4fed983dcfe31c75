#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace speedbal {

/// A load-balancing policy plugged into the Simulator. Balancers schedule
/// their own periodic events (and optionally register the new-idle hook) and
/// move tasks with Simulator::migrate / set_affinity.
class Balancer {
 public:
  virtual ~Balancer() = default;

  /// Begin operating on `sim`. The balancer must outlive the simulation run.
  virtual void attach(Simulator& sim) = 0;

  virtual std::string name() const = 0;
};

/// Hard-pin `tasks[i]` to `cores[(first + i) % cores.size()]`, booking each
/// move under `cause`: the round-robin placement user-level balancers start
/// from, and the paper's PINNED configuration when nothing moves the tasks
/// afterwards (optimal only when the thread count divides the core count,
/// Section 6.2).
void pin_round_robin(Simulator& sim, std::span<Task* const> tasks,
                     const std::vector<CoreId>& cores, std::size_t first,
                     MigrationCause cause);

namespace balance_detail {

/// Tasks a kernel-level balancer may consider on a core's queue: runnable,
/// not currently executing, and not pinned via sched_setaffinity by a
/// user-level balancer (Section 5.2: "Linux will not attempt to move it").
/// Fills a caller-owned reuse buffer (cleared first): balancer tick loops
/// call this once per core pair.
void kernel_movable(const Simulator& sim, CoreId source, CoreId dest,
                    std::vector<Task*>& out);

/// Whether the task is "cache hot" per the Linux heuristic: it executed on
/// its core within `hot_time` (default ~5ms in the paper's kernel).
bool cache_hot(const Simulator& sim, const Task& t, SimTime hot_time);

}  // namespace balance_detail
}  // namespace speedbal
