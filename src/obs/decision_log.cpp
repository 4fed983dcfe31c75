#include "obs/decision_log.hpp"

namespace speedbal::obs {

const char* to_string(PullReason r) {
  switch (r) {
    case PullReason::Pulled: return "pulled";
    case PullReason::BelowAverage: return "below-average";
    case PullReason::LocalBlocked: return "local-blocked";
    case PullReason::AboveThreshold: return "above-threshold";
    case PullReason::MigrationBlocked: return "migration-blocked";
    case PullReason::NumaBlocked: return "numa-blocked";
    case PullReason::DomainBlocked: return "domain-blocked";
    case PullReason::NoCandidate: return "no-candidate";
    case PullReason::NoVictim: return "no-victim";
    case PullReason::HotPotato: return "hot-potato";
    case PullReason::CoreOffline: return "core-offline";
    case PullReason::AffinityFailed: return "affinity-failed";
    case PullReason::SampleFailed: return "sample-failed";
  }
  return "?";
}

PullReason parse_pull_reason(std::string_view s) {
  for (int r = 0; r < kNumPullReasons; ++r) {
    const auto reason = static_cast<PullReason>(r);
    if (s == to_string(reason)) return reason;
  }
  return PullReason::NoCandidate;
}

}  // namespace speedbal::obs
