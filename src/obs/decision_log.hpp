#pragma once

#include <cstdint>

#include "obs/capped_log.hpp"
#include "util/enum_names.hpp"

namespace speedbal::obs {

/// Why a balance pass pulled — or declined to pull — a thread. Shared
/// reason codes between the simulated and the native speed balancer, so
/// reproduction failures are attributable instead of silent.
enum class PullReason {
  Pulled = 0,        ///< A migration was performed.
  BelowAverage,      ///< Pass skipped: local core not faster than the global average.
  LocalBlocked,      ///< Unused: kept as a report key (a blocked local core
                     ///< logs MigrationBlocked per candidate).
  AboveThreshold,    ///< Candidate rejected: s_k / s_global >= T_s.
  MigrationBlocked,  ///< Candidate rejected: inside its post-migration block.
  NumaBlocked,       ///< Candidate rejected: would cross a NUMA boundary.
  DomainBlocked,     ///< Candidate rejected: above the allowed scheduling-domain level.
  NoCandidate,       ///< Pass found no source core after all rejections.
  NoVictim,          ///< Source chosen but it held no managed thread to pull.
  HotPotato,         ///< Victim skipped: pulling it back inside the guard
                     ///< window would complete an A->B->A ping-pong.
  // Perturbation-caused outcomes (hotplug / fault injection).
  CoreOffline,       ///< Local or destination core hotplugged out mid-pass.
  AffinityFailed,    ///< sched_setaffinity failed permanently (retries spent).
  SampleFailed,      ///< Speed measurement failed (procfs read error).
};

inline constexpr auto kPullReasonNames = enum_names<PullReason>(
    "pull reason", "pulled", "below-average", "local-blocked",
    "above-threshold", "migration-blocked", "numa-blocked", "domain-blocked",
    "no-candidate", "no-victim", "hot-potato", "core-offline",
    "affinity-failed", "sample-failed");
static_assert(kPullReasonNames.ends_at(PullReason::SampleFailed));

inline const char* to_string(PullReason r) { return kPullReasonNames[r]; }

/// One decision-log entry. Candidate rejections record the rejected core in
/// `source`; pass-level outcomes (BelowAverage, NoCandidate, Pulled) record
/// the pass's local core and, where applicable, the chosen source/victim.
struct DecisionRecord {
  std::int64_t ts_us = 0;
  int local = -1;
  int source = -1;
  /// Pulled only: the migrated thread (sim TaskId or native tid) and
  /// whether the least-migrated pick fell back to the id tie-break
  /// (hot-potato avoidance between equally-migrated threads).
  std::int64_t victim = -1;
  bool tie_break = false;
  double local_speed = 0.0;
  double source_speed = 0.0;
  double global = 0.0;
  PullReason reason = PullReason::NoCandidate;
  /// Causal link to the speed-timeline sample this pass acted on (the index
  /// SpeedTimeline::add returned); -1 when no sample was recorded.
  std::int64_t sample_seq = -1;
  /// Pulled only: warmup cost (µs of slow-speed execution) charged to the
  /// victim by the migration, for end-to-end blame accounting.
  double warmup_charged_us = 0.0;

  /// The run report's decision "records" fields (util/json field list).
  template <class Rec, class F>
  static void fields(Rec& d, F&& f) {
    f("t_us", d.ts_us);
    f("reason", d.reason, kPullReasonNames);
    f("local", d.local);
    f("source", d.source);
    if (d.reason == PullReason::Pulled) {
      f("victim", d.victim);
      f("tie_break", d.tie_break);
      f("warmup_charged_us", d.warmup_charged_us);
    }
    f("sample_seq", d.sample_seq);
    f("local_speed", d.local_speed);
    f("source_speed", d.source_speed);
    f("global", d.global);
  }
};

/// Append-only balancer decision log with per-reason counters. Record
/// storage is capped (counters are not) so pathological runs cannot grow
/// the log unboundedly.
using DecisionLog = CappedLog<DecisionRecord, 100000, &DecisionRecord::reason,
                              kPullReasonNames.size()>;

}  // namespace speedbal::obs
