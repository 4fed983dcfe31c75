#pragma once

#include <cstdint>

#include "obs/capped_log.hpp"
#include "util/enum_names.hpp"

namespace speedbal::obs {

/// Why a migration happened; lets the experiments attribute migration
/// volume to each balancing mechanism. Lives in obs, next to PullReason, so
/// the simulator and the native balancer log migrations into one table.
enum class MigrationCause {
  ForkPlacement,    ///< Initial core choice at task start.
  WakePlacement,    ///< Idle-core selection when a sleeper wakes.
  Affinity,         ///< Explicit sched_setaffinity by a user-level balancer.
  LinuxPeriodic,    ///< Linux load balancer periodic pull.
  LinuxNewIdle,     ///< Linux new-idle balancing pull.
  LinuxPush,        ///< Linux migration-thread push to an idle core.
  SpeedBalancer,    ///< The paper's user-level speed balancer.
  Dwrr,             ///< DWRR round balancing steal.
  Ule,              ///< FreeBSD ULE push migration.
  Hotplug,          ///< Forced off an offlined core (perturbation drain).
};

inline constexpr auto kMigrationCauseNames = enum_names<MigrationCause>(
    "migration cause", "fork", "wake", "affinity", "linux-periodic",
    "linux-newidle", "linux-push", "speed", "dwrr", "ule", "hotplug");
static_assert(kMigrationCauseNames.ends_at(MigrationCause::Hotplug));

inline const char* to_string(MigrationCause cause) {
  return kMigrationCauseNames[cause];
}

/// One recorded migration: a simulated task or a native thread id moving
/// between cores. The run report's "migrations" section (obsquery --storms)
/// and the trace's "migration" instants are both derived from these at
/// export.
struct MigrationRecord {
  std::int64_t ts_us = 0;
  std::int32_t task = -1;
  std::int32_t from = -1;
  std::int32_t to = -1;
  MigrationCause cause = MigrationCause::Affinity;

  /// The run report's "migrations" fields (util/json field list).
  template <class Rec, class F>
  static void fields(Rec& r, F&& f) {
    f("t_us", r.ts_us);
    f("task", r.task);
    f("from", r.from);
    f("to", r.to);
    f("cause", r.cause, kMigrationCauseNames);
  }
};

/// Append-only migration log with per-cause counters.
using MigrationLog = CappedLog<MigrationRecord, (1 << 20),
                               &MigrationRecord::cause,
                               kMigrationCauseNames.size()>;

}  // namespace speedbal::obs
