#pragma once

#include <cstdint>

#include "obs/capped_log.hpp"

namespace speedbal::obs {

/// One contiguous stretch of execution of a task on a core, a 32-byte POD.
/// The simulator records one per dispatch, from the dispatch to the moment
/// the task stops running; a Simulator::sync_accounting in the middle of a
/// stretch splits it into adjacent pieces (same task, same core, end ==
/// next start). Speed changes do not split a segment.
struct RunSegmentRecord {
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::int32_t core = -1;
  std::int32_t task = -1;
  std::int32_t node = -1;  ///< Cluster node id, -1 for single-machine runs.
  std::int32_t pad = 0;
};

/// The recorder's store of simulated run segments. A recorded run keeps its
/// segments in a buffer of its own, with no lock per segment and no more
/// than this table has room for, and hands the buffer over in one append at
/// export; the rest are only counted into dropped(). The Chrome-trace
/// writer derives the "run" spans lazily, as it derives every other log's
/// events. Capped: long runs must not produce unboundedly large exports.
using RunSegmentTable = CappedLog<RunSegmentRecord, 200000>;

}  // namespace speedbal::obs
