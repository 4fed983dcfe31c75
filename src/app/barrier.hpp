#pragma once

#include "util/enum_names.hpp"
#include "util/time.hpp"

namespace speedbal {

/// How a thread waits at a barrier (or any collective). The choice controls
/// run-queue membership, which is exactly what distinguishes the paper's
/// LOAD-SLEEP / LOAD-YIELD / polling configurations (Sections 3 and 6.2):
/// a yielding thread stays on the run queue and is counted by the Linux
/// queue-length balancer; a sleeping thread is removed, letting the kernel
/// pull work onto the idle core.
enum class WaitPolicy {
  Spin,       ///< Busy-poll; burns full timeslices (OMP KMP_BLOCKTIME=infinite).
  Yield,      ///< Poll + sched_yield (UPC and MPI default runtimes).
  Sleep,      ///< Poll for block_time, then block until released (Intel OpenMP
              ///< default: 200 ms block time).
  SleepPoll,  ///< usleep(1)-style: repeatedly block for a short period and
              ///< re-check (the paper's modified UPC runtime).
};

inline constexpr auto kWaitPolicyNames = enum_names<WaitPolicy>(
    "barrier policy", "spin", "yield", "sleep", "sleep-poll");
static_assert(kWaitPolicyNames.ends_at(WaitPolicy::SleepPoll));

inline const char* to_string(WaitPolicy p) { return kWaitPolicyNames[p]; }

/// Barrier configuration shared by every thread of an SPMD application.
struct BarrierConfig {
  WaitPolicy policy = WaitPolicy::Yield;
  /// Sleep policy: wall-clock spin time before blocking (KMP_BLOCKTIME).
  SimTime block_time = msec(200);
  /// SleepPoll policy: period of each short block.
  SimTime poll_period = msec(1);
};

}  // namespace speedbal
