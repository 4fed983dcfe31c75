#include "obs/share_log.hpp"

namespace speedbal::obs {

const char* to_string(ShareOutcome o) {
  switch (o) {
    case ShareOutcome::Bootstrap: return "bootstrap";
    case ShareOutcome::Repartitioned: return "repartitioned";
    case ShareOutcome::BelowHysteresis: return "below-hysteresis";
  }
  return "?";
}

ShareOutcome parse_share_outcome(std::string_view s) {
  for (int i = 0; i < kNumShareOutcomes; ++i) {
    const auto o = static_cast<ShareOutcome>(i);
    if (s == to_string(o)) return o;
  }
  return ShareOutcome::BelowHysteresis;
}

}  // namespace speedbal::obs
