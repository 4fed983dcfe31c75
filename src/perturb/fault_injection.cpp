#include "perturb/fault_injection.hpp"

namespace speedbal::perturb {

void FaultInjector::fail_next(FaultOp op, int count, int err) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& s = ops_[static_cast<std::size_t>(op)];
  s.pending += count;
  s.err = err;
}

int FaultInjector::next_error(FaultOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& s = ops_[static_cast<std::size_t>(op)];
  if (s.pending <= 0) return 0;
  --s.pending;
  ++s.injected;
  return s.err;
}

std::int64_t FaultInjector::injected(FaultOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_[static_cast<std::size_t>(op)].injected;
}

int FaultInjector::pending(FaultOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_[static_cast<std::size_t>(op)].pending;
}

}  // namespace speedbal::perturb
