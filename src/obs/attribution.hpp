#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/span.hpp"
#include "util/stats.hpp"

namespace speedbal::obs {

/// Aggregate latency attribution for one request class: where that class's
/// sojourn time went, summed over its completed (sampled) requests, plus
/// the class's sojourn distribution. Sums are exact integer microseconds
/// except stall (fractional warmup time).
struct ClassAttribution {
  int cls = 0;
  std::int64_t requests = 0;
  std::int64_t queue_us = 0;
  std::int64_t exec_us = 0;
  std::int64_t preempt_us = 0;
  double stall_us = 0.0;
  std::int64_t migrations = 0;
  LatencyHistogram sojourn_ns;  ///< Sojourn distribution (ns, like ServeStats).
};

/// The per-class attribution table derived from a span set; rows sorted by
/// class id. This is the "why was the tail slow" summary the run report
/// exports and `obsquery --blame` prints.
struct AttributionTable {
  std::vector<ClassAttribution> classes;

  static AttributionTable build(const std::vector<RequestSpan>& spans);
};

/// Indices of the `k` slowest spans by sojourn time, slowest first; ties
/// break toward the lower request id so the order is deterministic.
std::vector<std::size_t> top_k_slowest(const std::vector<RequestSpan>& spans,
                                       std::size_t k);

/// One detected migration storm: a time window holding an anomalous number
/// of migrations (the signature of balancer ping-ponging).
struct StormWindow {
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;        ///< Timestamp of the window's last migration.
  std::int64_t migrations = 0;    ///< Count within [start_us, end_us].
};

/// Sliding-window storm detection over migration timestamps (sorted
/// ascending; unsorted input is sorted internally): report every maximal
/// window of width <= `window_us` containing >= `threshold` migrations.
/// Overlapping hits are coalesced into one StormWindow.
std::vector<StormWindow> detect_migration_storms(std::vector<std::int64_t> ts_us,
                                                 std::int64_t window_us,
                                                 std::int64_t threshold);

}  // namespace speedbal::obs
