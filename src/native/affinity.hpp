#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perturb/fault_injection.hpp"

namespace speedbal::native {

/// Thin RAII-free value wrapper over cpu_set_t semantics, limited to 64
/// CPUs (ample for the paper's systems). Conversion helpers keep the
/// syscall surface in one place.
class CpuSet {
 public:
  CpuSet() = default;
  explicit CpuSet(std::uint64_t mask) : mask_(mask) {}

  static CpuSet single(int cpu) { return CpuSet(1ULL << cpu); }

  void add(int cpu) { mask_ |= 1ULL << cpu; }
  void remove(int cpu) { mask_ &= ~(1ULL << cpu); }
  bool contains(int cpu) const { return (mask_ >> cpu) & 1ULL; }
  bool empty() const { return mask_ == 0; }
  std::uint64_t mask() const { return mask_; }
  std::vector<int> cpus() const;

  /// Parse a "0,2-5"-style Linux cpu list.
  static CpuSet parse_list(const std::string& list);

  bool operator==(const CpuSet&) const = default;

 private:
  std::uint64_t mask_ = 0;
};

/// Bounded retry policy for transient syscall failures (EINTR/EAGAIN):
/// up to `max_attempts` tries, sleeping `initial_backoff` before the first
/// retry and doubling it each time. Permanent errors (ESRCH: thread gone,
/// EINVAL: no usable CPU in the mask) are never retried.
struct RetryPolicy {
  int max_attempts = 3;
  std::chrono::microseconds initial_backoff{200};
};

/// sched_setaffinity for a specific thread (tid) with bounded
/// retry-with-backoff on transient failures. Returns 0 on success or the
/// last errno; never throws. When `inject` is non-null it is consulted
/// before every real syscall attempt and a nonzero armed errno is treated
/// exactly like the syscall failing with it (the fault-injection shim).
int set_affinity_errno(pid_t tid, const CpuSet& set,
                       const RetryPolicy& retry = {},
                       perturb::FaultInjector* inject = nullptr);

/// Boolean convenience wrapper over set_affinity_errno (default retries,
/// no injection) — balancers must tolerate threads racing with them.
bool set_affinity(pid_t tid, const CpuSet& set);

/// sched_getaffinity; returns an empty set on failure.
CpuSet get_affinity(pid_t tid);

/// CPU the calling thread is currently executing on.
int current_cpu();

/// Number of online CPUs on this machine.
int online_cpus();

}  // namespace speedbal::native
