#pragma once

#include <cstdint>
#include <vector>

#include "obs/capped_log.hpp"
#include "util/enum_names.hpp"

namespace speedbal::obs {

/// Outcome of one adaptive-controller epoch: what the tuner did with the
/// speed balancer's constants. The tuning analogue of PullReason /
/// ShareOutcome: every epoch leaves a record, so `obsquery --tuning` can
/// answer "why did the balance interval drop at t=1.2s" (or "why did the
/// controller sit on the paper constants through the whole DVFS ramp").
enum class TuningOutcome {
  Bootstrap = 0,  ///< Bandit still visiting an unexplored arm; arm forced.
  Kept,           ///< Epoch evaluated; incumbent arm retained.
  Switched,       ///< Bandit moved to a better-scoring arm.
  Anticipated,    ///< Predictor tripped; jumped to the aggressive arm early.
  Dwell,          ///< A switch was indicated but the dwell gate held it.
};

inline constexpr auto kTuningOutcomeNames = enum_names<TuningOutcome>(
    "tuning outcome", "bootstrap", "kept", "switched", "anticipated", "dwell");
static_assert(kTuningOutcomeNames.ends_at(TuningOutcome::Dwell));

inline const char* to_string(TuningOutcome o) { return kTuningOutcomeNames[o]; }

/// One controller-epoch record. `arm` is the portfolio index in force after
/// the decision (`prev_arm` before it); the interval/threshold/block/cache
/// fields are the full constant-set now governing the wrapped balancer, so
/// the record is self-describing even without the portfolio table.
struct TuningRecord {
  std::int64_t ts_us = 0;
  std::int64_t epoch = 0;
  TuningOutcome outcome = TuningOutcome::Kept;
  int arm = 0;
  int prev_arm = 0;
  std::int64_t interval_us = 0;
  double threshold = 0.0;
  int post_migration_block = 0;
  double cache_block_scale = 0.0;
  /// Reward the incumbent arm earned this epoch (higher is better: negated
  /// dispersion minus churn and congestion penalties).
  double reward = 0.0;
  /// EWMA-smoothed speed dispersion (coefficient of variation) the epoch saw.
  double dispersion = 0.0;
  /// Predictor's imbalance forecast for the next epoch (level + slope).
  double predicted = 0.0;

  /// The run report's "tuning" fields (util/json field list).
  template <class Rec, class F>
  static void fields(Rec& r, F&& f) {
    f("t_us", r.ts_us);
    f("epoch", r.epoch);
    f("outcome", r.outcome, kTuningOutcomeNames);
    f("arm", r.arm);
    f("prev_arm", r.prev_arm);
    f("interval_us", r.interval_us);
    f("threshold", r.threshold);
    f("post_migration_block", r.post_migration_block);
    f("cache_block_scale", r.cache_block_scale);
    f("reward", r.reward);
    f("dispersion", r.dispersion);
    f("predicted", r.predicted);
  }
};

/// Append-only, capped tuning-epoch log — one record per controller epoch,
/// so its growth is bounded by run length / balance interval, not traffic.
using TuningLog =
    CappedLog<TuningRecord, 100000, &TuningRecord::outcome,
              kTuningOutcomeNames.size()>;

}  // namespace speedbal::obs
