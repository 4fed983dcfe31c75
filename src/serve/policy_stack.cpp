#include "serve/policy_stack.hpp"

namespace speedbal::serve {

void PolicyStack::attach_kernel(Simulator& sim) {
  switch (params_.policy) {
    case Policy::Dwrr:
      dwrr_ = std::make_unique<DwrrBalancer>(params_.dwrr);
      dwrr_->attach(sim);
      break;
    case Policy::Ule:
      ule_ = std::make_unique<UleBalancer>(params_.ule);
      ule_->attach(sim);
      break;
    case Policy::None:
      break;
    default:
      linux_lb_ = std::make_unique<LinuxLoadBalancer>(params_.linux_load);
      linux_lb_->attach(sim);
      break;
  }
}

PhasePartitioner* PolicyStack::partitioner(const std::vector<CoreId>& cores) {
  if (params_.policy != Policy::Share) return nullptr;
  share_ = std::make_unique<hetero::ShareBalancer>(params_.share, cores);
  return share_.get();
}

void PolicyStack::attach_user(Simulator& sim, std::vector<Task*> workers,
                              std::vector<CoreId> cores,
                              obs::RunRecorder* rec) {
  cores_ = std::move(cores);
  pin_cursor_ = workers.size();
  if (params_.policy == Policy::Speed && params_.adaptive.enabled) {
    AdaptiveParams ap = params_.adaptive;
    ap.speed = params_.speed;
    adaptive_ = std::make_unique<AdaptiveSpeedBalancer>(
        std::move(ap), std::move(workers), cores_);
    adaptive_->attach(sim);
    if (rec != nullptr) adaptive_->set_recorder(rec);
  } else if (params_.policy == Policy::Speed) {
    speed_ = std::make_unique<SpeedBalancer>(params_.speed, std::move(workers),
                                             cores_);
    speed_->attach(sim);
    if (rec != nullptr) speed_->set_recorder(rec);
  } else if (params_.policy == Policy::Pinned) {
    pin_round_robin(sim, workers, cores_, 0, MigrationCause::Affinity);
  } else if (params_.policy == Policy::Share) {
    if (share_ == nullptr)
      share_ = std::make_unique<hetero::ShareBalancer>(params_.share, cores_);
    share_->set_managed(std::move(workers));
    if (rec != nullptr) share_->set_recorder(rec);
    share_->attach(sim);
  }
}

void PolicyStack::manage(Simulator& sim, std::span<Task* const> workers) {
  if (speed_ != nullptr) {
    for (Task* t : workers) speed_->add_managed(*t);
  } else if (adaptive_ != nullptr) {
    for (Task* t : workers) adaptive_->add_managed(*t);
  } else if (round_robin_launch()) {
    pin_round_robin(sim, workers, cores_, pin_cursor_, MigrationCause::Affinity);
    pin_cursor_ += workers.size();
  }
}

}  // namespace speedbal::serve
