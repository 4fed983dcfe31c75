#pragma once

#include <cstdint>
#include <vector>

#include "obs/capped_log.hpp"
#include "util/enum_names.hpp"

namespace speedbal::obs {

/// Outcome of one global-rebalancer epoch: why a pool did — or did not —
/// move between nodes. The cluster analogue of PullReason: every epoch
/// leaves a record, so `obsquery` can answer "why did pool X move" (or "why
/// did nothing move while node 3 was melting").
enum class RebalanceOutcome {
  Migrated = 0,    ///< A pool was migrated from the hottest to the coldest node.
  BelowThreshold,  ///< Fractional load imbalance under the configured threshold.
  Cooldown,        ///< Inside the post-migration cooldown window.
  NoCandidate,     ///< Imbalance past threshold but no movable pool
                   ///< (e.g. the hot node's only pool is already draining).
};

inline constexpr auto kRebalanceOutcomeNames = enum_names<RebalanceOutcome>(
    "rebalance outcome", "migrated", "below-threshold", "cooldown",
    "no-candidate");
static_assert(kRebalanceOutcomeNames.ends_at(RebalanceOutcome::NoCandidate));

inline const char* to_string(RebalanceOutcome o) {
  return kRebalanceOutcomeNames[o];
}

/// One rebalance-epoch record. `imbalance` is the fractional load imbalance
/// the epoch observed (max per-capacity node load / mean − 1, the HemoCell
/// metric); Migrated records also carry the moved pool and the endpoint
/// nodes with their per-capacity loads at decision time.
struct RebalanceRecord {
  std::int64_t ts_us = 0;
  std::int64_t epoch = 0;
  double imbalance = 0.0;
  double threshold = 0.0;
  RebalanceOutcome outcome = RebalanceOutcome::BelowThreshold;
  int pool = -1;
  int from_node = -1;
  int to_node = -1;
  double from_load = 0.0;
  double to_load = 0.0;
  /// Requests drained from the pool's queues and re-dispatched with the
  /// migration (Migrated only).
  std::int64_t drained = 0;

  /// The run report's "rebalances" fields (util/json field list).
  template <class Rec, class F>
  static void fields(Rec& r, F&& f) {
    f("t_us", r.ts_us);
    f("epoch", r.epoch);
    f("outcome", r.outcome, kRebalanceOutcomeNames);
    f("imbalance", r.imbalance);
    f("threshold", r.threshold);
    if (r.outcome == RebalanceOutcome::Migrated) {
      f("pool", r.pool);
      f("from_node", r.from_node);
      f("to_node", r.to_node);
      f("from_load", r.from_load);
      f("to_load", r.to_load);
      f("drained", r.drained);
    }
  }
};

/// Append-only, capped epoch log — one record per rebalance epoch, so its
/// growth is bounded by run length / epoch period, not by traffic.
using RebalanceLog = CappedLog<RebalanceRecord, 100000,
                               &RebalanceRecord::outcome,
                               kRebalanceOutcomeNames.size()>;

}  // namespace speedbal::obs
