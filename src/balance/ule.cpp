#include "balance/ule.hpp"

#include <limits>

namespace speedbal {
namespace {

/// The push balancer runs twice a second.
constexpr SimTime kPushInterval = msec(500);

}  // namespace

UleBalancer::UleBalancer(UleParams params) : params_(params) {}

void UleBalancer::attach(Simulator& sim) {
  sim_ = &sim;
  if (params_.automatic)
    sim.schedule_after(kPushInterval, [this] { tick(); });
}

void UleBalancer::tick() {
  push_once();
  sim_->schedule_after(kPushInterval, [this] { tick(); });
}

void UleBalancer::push_once() {
  CoreId busiest = -1;
  CoreId lightest = -1;
  std::size_t max_load = 0;
  std::size_t min_load = std::numeric_limits<std::size_t>::max();
  for (CoreId c = 0; c < sim_->num_cores(); ++c) {
    if (!sim_->core_online(c)) continue;  // An offline core looks empty.
    const std::size_t load = sim_->core(c).queue().nr_running();
    if (load > max_load) {
      max_load = load;
      busiest = c;
    }
    if (load < min_load) {
      min_load = load;
      lightest = c;
    }
  }
  if (busiest < 0 || lightest < 0 || busiest == lightest) return;
  if (max_load < min_load + static_cast<std::size_t>(params_.steal_thresh)) return;

  balance_detail::kernel_movable(*sim_, busiest, lightest, scratch_);
  for (Task* t : scratch_) {
    sim_->migrate(*t, lightest, MigrationCause::Ule);
    return;
  }
}

}  // namespace speedbal
