#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/capped_log.hpp"

namespace speedbal::obs {

/// One balance-interval observation of the speed state the balancer acted
/// on: per-core speeds, the global average, run-queue lengths, and which
/// cores sat below the pull threshold T_s at that instant. Vectors are
/// indexed by position in the recorder's `cores()` list (the managed cores),
/// not by raw core id.
struct SpeedSample {
  std::int64_t ts_us = 0;
  /// Which balancer took the sample (the local core of the pass); -1 for a
  /// centralized observer such as the native balancer's sequential sweep.
  int observer = -1;
  double global = 0.0;
  std::vector<double> core_speed;
  /// Run-queue length (sim) or managed-thread count (native); -1 unknown.
  std::vector<int> queue_len;
  std::vector<bool> below_threshold;

  /// The run report's "speed_timeline" fields (util/json field list).
  template <class Rec, class F>
  static void fields(Rec& s, F&& f) {
    f("t_us", s.ts_us);
    f("observer", s.observer);
    f("global", s.global);
    f("core_speed", s.core_speed);
    f("queue_len", s.queue_len);
    f("below_threshold", s.below_threshold);
  }
};

/// Append-only per-interval speed time-series, the signal the paper's whole
/// argument rests on. Populated by the simulated and native speed balancers
/// at every balance pass; exported as counter tracks in the Chrome trace and
/// as a sample array plus summary statistics in the JSON run report. add()
/// returns the index DecisionRecord::sample_seq links to.
using SpeedTimeline = CappedLog<SpeedSample, (1 << 18)>;

/// Moments of a global-speed series (variance is the population variance;
/// all zero when there are no samples).
struct GlobalStats {
  std::int64_t samples = 0;
  double mean = 0.0;
  double variance = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline GlobalStats global_stats(const std::vector<SpeedSample>& samples) {
  GlobalStats out;
  if (samples.empty()) return out;
  out.samples = static_cast<std::int64_t>(samples.size());
  out.min = samples.front().global;
  out.max = samples.front().global;
  double sum = 0.0;
  for (const auto& s : samples) {
    sum += s.global;
    out.min = std::min(out.min, s.global);
    out.max = std::max(out.max, s.global);
  }
  out.mean = sum / static_cast<double>(samples.size());
  double sq = 0.0;
  for (const auto& s : samples) {
    const double d = s.global - out.mean;
    sq += d * d;
  }
  out.variance = sq / static_cast<double>(samples.size());
  return out;
}

}  // namespace speedbal::obs
