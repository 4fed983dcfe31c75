#include "obs/rebalance_log.hpp"

namespace speedbal::obs {

const char* to_string(RebalanceOutcome o) {
  switch (o) {
    case RebalanceOutcome::Migrated: return "migrated";
    case RebalanceOutcome::BelowThreshold: return "below-threshold";
    case RebalanceOutcome::Cooldown: return "cooldown";
    case RebalanceOutcome::NoCandidate: return "no-candidate";
  }
  return "?";
}

RebalanceOutcome parse_rebalance_outcome(std::string_view s) {
  for (int i = 0; i < kNumRebalanceOutcomes; ++i) {
    const auto o = static_cast<RebalanceOutcome>(i);
    if (s == to_string(o)) return o;
  }
  return RebalanceOutcome::NoCandidate;
}

}  // namespace speedbal::obs
