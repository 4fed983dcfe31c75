#include "obs/tuning_log.hpp"

namespace speedbal::obs {

const char* to_string(TuningOutcome o) {
  switch (o) {
    case TuningOutcome::Bootstrap: return "bootstrap";
    case TuningOutcome::Kept: return "kept";
    case TuningOutcome::Switched: return "switched";
    case TuningOutcome::Anticipated: return "anticipated";
    case TuningOutcome::Dwell: return "dwell";
  }
  return "?";
}

TuningOutcome parse_tuning_outcome(std::string_view s) {
  for (int i = 0; i < kNumTuningOutcomes; ++i) {
    const auto o = static_cast<TuningOutcome>(i);
    if (s == to_string(o)) return o;
  }
  return TuningOutcome::Kept;
}

}  // namespace speedbal::obs
