#pragma once

#include <cstdint>

#include "obs/capped_log.hpp"

namespace speedbal::obs {

/// One per-task run segment, a 32-byte POD.
struct RunSegmentRecord {
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::int32_t core = -1;
  std::int32_t task = -1;
  std::int32_t node = -1;  ///< Cluster node id, -1 for single-machine runs.
  std::int32_t pad = 0;
};

/// Compact store for the simulator's per-task run segments. The segment
/// export used to push one TraceEvent (heap-allocated name, one mutex
/// round-trip) per segment into the trace collector — at Yield-mode context
/// switch rates that is tens of thousands of string allocations charged to
/// the run, dwarfing the actual tracing hot path. Instead the exporter bulk
/// appends segments with add_generated under a single lock, building only
/// those the cap keeps, and the Chrome-trace writer derives the "run" spans
/// lazily, as it derives every other log's events. Capped: long runs must
/// not produce unboundedly large exports.
struct RunSegmentTable : CappedLog<RunSegmentRecord, 200000> {
  using Segment = RunSegmentRecord;
};

}  // namespace speedbal::obs
