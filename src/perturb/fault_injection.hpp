#pragma once

#include <array>
#include <cstdint>
#include <mutex>

#include "util/enum_names.hpp"

namespace speedbal::perturb {

/// Operations the native layer exposes to fault injection.
enum class FaultOp {
  SetAffinity,  ///< sched_setaffinity on a managed thread.
  ProcfsRead,   ///< One /proc/<pid>/task/<tid>/stat read.
};

inline constexpr auto kFaultOpNames =
    enum_names<FaultOp>("fault op", "set-affinity", "procfs-read");
static_assert(kFaultOpNames.ends_at(FaultOp::ProcfsRead));

inline const char* to_string(FaultOp op) { return kFaultOpNames[op]; }

/// Deterministic failure-injection shim for the native balancer: arms a
/// number of consecutive failures per operation, each simulating a given
/// errno. The instrumented wrappers in native/affinity.cpp and
/// native/procfs.cpp consult `next_error` before every real syscall attempt
/// and treat a nonzero return exactly like the syscall failing with that
/// errno — so retry/backoff/degradation paths are exercised without any
/// kernel cooperation. Thread-safe: the balancer worker and the arming
/// thread (a test, or a timeline player) may race freely.
class FaultInjector {
 public:
  /// Arm `count` consecutive failures of `op`, each reporting `err`.
  /// Repeated calls accumulate onto the pending count (the new errno wins).
  void fail_next(FaultOp op, int count, int err);

  /// Consume one armed failure: returns the errno to simulate, or 0 to let
  /// the real operation proceed.
  int next_error(FaultOp op);

  /// Total failures injected so far for `op` (for tests/telemetry).
  std::int64_t injected(FaultOp op) const;
  /// Failures still armed for `op`.
  int pending(FaultOp op) const;

 private:
  struct State {
    int pending = 0;
    int err = 0;
    std::int64_t injected = 0;
  };

  mutable std::mutex mu_;
  std::array<State, kFaultOpNames.size()> ops_{};
};

}  // namespace speedbal::perturb
