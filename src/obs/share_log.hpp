#pragma once

#include <cstdint>
#include <vector>

#include "obs/capped_log.hpp"
#include "util/enum_names.hpp"

namespace speedbal::obs {

/// Outcome of one ShareBalancer repartition epoch: why the work shares did
/// — or did not — change. The partitioning analogue of PullReason /
/// RebalanceOutcome: every epoch leaves a record, so `obsquery --shares`
/// can answer "why did core 3's share shrink" (or "why did the partition
/// sit still while the little cores were throttled").
enum class ShareOutcome {
  Bootstrap = 0,    ///< First measurement; initial shares established.
  Repartitioned,    ///< Shares moved to the new speed-proportional target.
  BelowHysteresis,  ///< Target within the hysteresis band; shares kept.
};

inline constexpr auto kShareOutcomeNames = enum_names<ShareOutcome>(
    "share outcome", "bootstrap", "repartitioned", "below-hysteresis");
static_assert(kShareOutcomeNames.ends_at(ShareOutcome::BelowHysteresis));

inline const char* to_string(ShareOutcome o) { return kShareOutcomeNames[o]; }

/// One repartition-epoch record. `shares` is the post-decision partition
/// (sums to 1); `speeds` the EWMA-smoothed per-core speeds the decision saw;
/// `max_delta` the largest per-core share change the target demanded;
/// `floor_clamped` how many cores the min-share floor held up.
struct ShareRecord {
  std::int64_t ts_us = 0;
  std::int64_t epoch = 0;
  ShareOutcome outcome = ShareOutcome::BelowHysteresis;
  double max_delta = 0.0;
  double hysteresis = 0.0;
  int floor_clamped = 0;
  std::vector<double> shares;
  std::vector<double> speeds;

  /// The run report's "shares" fields (util/json field list).
  template <class Rec, class F>
  static void fields(Rec& r, F&& f) {
    f("t_us", r.ts_us);
    f("epoch", r.epoch);
    f("outcome", r.outcome, kShareOutcomeNames);
    f("max_delta", r.max_delta);
    f("hysteresis", r.hysteresis);
    f("floor_clamped", r.floor_clamped);
    f("shares", r.shares);
    f("speeds", r.speeds);
  }
};

/// Append-only, capped epoch log — one record per repartition epoch, so its
/// growth is bounded by run length / balance interval, not by traffic.
using ShareLog =
    CappedLog<ShareRecord, 100000, &ShareRecord::outcome,
              kShareOutcomeNames.size()>;

}  // namespace speedbal::obs
