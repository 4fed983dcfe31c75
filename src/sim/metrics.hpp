#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/task.hpp"
#include "topo/topology.hpp"
#include "util/time.hpp"

namespace speedbal {

using obs::kMigrationCauseNames;
using obs::MigrationCause;
using MigrationRecord = obs::MigrationRecord;

/// Run-wide observability: execution per task per core, the migration log
/// and its per-cause tally, and, only while a recorder will export them, the
/// run segments. The invariant probes, the property tests and the figure
/// harnesses read the exec table; the recorder export reads the migrations
/// and the segments.
///
/// The Simulator writes one record_exec per stretch of execution (and at each
/// sync_accounting); every query is a plain read of what was recorded.
class Metrics {
 public:
  explicit Metrics(int num_cores)
      : num_cores_(num_cores),
        empty_(static_cast<std::size_t>(num_cores), SimTime{0}) {
    cause_counts_.fill(0);
  }

  /// One contiguous execution stretch: adds `dur` to the task's exec on
  /// `core`, and keeps the segment when keep_segments_for left room.
  void record_exec(TaskId task, CoreId core, SimTime start, SimTime dur);

  void record_migration(const MigrationRecord& rec);

  /// Attach an observability recorder: every subsequent migration is also
  /// appended to the recorder's migration log, and the run's segments are
  /// kept for its segment table (keep_segments_for). The run fills the
  /// whole table, so its segment buffer is allocated once, at the table's
  /// room, when the first segment is kept. Null (the default) disables both
  /// at the cost of one pointer test per migration.
  void set_recorder(obs::RunRecorder* rec);
  obs::RunRecorder* recorder() const { return recorder_; }

  /// Keep the first segments recorded from now on, as many as `table` has
  /// room for at this call, for export_run_to_recorder to hand over; the
  /// rest are only counted. `node` tags them with a cluster node id (-1 = a
  /// single-machine run). Null keeps none, the default: a run nobody
  /// exports keeps no segment log. The buffer grows as segments come, since
  /// many runs (a cluster's nodes) may share the one table's room.
  void keep_segments_for(const obs::RunSegmentTable* table, int node = -1);
  /// Lower the number of segments kept to `cap`: kept ones past it are
  /// dropped and counted, as if never kept.
  void limit_segments(std::size_t cap);
  /// The segments kept since the last handover.
  const std::vector<obs::RunSegmentRecord>& kept_segments() const {
    return segments_;
  }
  /// Segments recorded since the last handover, kept or not.
  std::int64_t segments_recorded() const {
    return static_cast<std::int64_t>(segments_.size()) + segments_dropped_;
  }
  /// Move the kept segments into `table` and count the rest as dropped
  /// there; this run's segment log starts empty again.
  void hand_over_segments(obs::RunSegmentTable& table);

  /// Fraction of the task's execution spent on cores where `pred(core)`
  /// holds (e.g. "the fast queues" of the Section 4 analysis). Zero when
  /// the task never ran.
  double residency_fraction(TaskId task,
                            const std::function<bool(CoreId)>& pred) const;

  /// Total execution time of `task` on each core (indexed by CoreId).
  const std::vector<SimTime>& exec_by_core(TaskId task) const;
  SimTime total_exec(TaskId task) const;

  const std::vector<MigrationRecord>& migrations() const { return migrations_; }
  /// O(1): served from the running per-cause tally.
  std::int64_t migration_count(MigrationCause cause) const {
    return cause_counts_[static_cast<std::size_t>(cause)];
  }
  std::int64_t migration_count() const {
    return static_cast<std::int64_t>(migrations_.size());
  }
  /// Migration totals attributed to each cause that occurred at least once.
  /// Built from the running tally — does not rescan the migration log.
  std::map<MigrationCause, std::int64_t> migration_counts_by_cause() const;

  int num_cores() const { return num_cores_; }

 private:
  int num_cores_;
  /// Per-task per-core execution, indexed [task][core]; rows are allocated
  /// on a task's first run.
  std::vector<std::vector<SimTime>> exec_;
  /// The kept segments (at most segment_cap_) and a count of the rest.
  std::vector<obs::RunSegmentRecord> segments_;
  std::size_t segment_cap_ = 0;
  /// Reserve segment_cap_ slots at the first kept segment (set_recorder).
  bool reserve_cap_ = false;
  std::int64_t segments_dropped_ = 0;
  std::int32_t segment_node_ = -1;
  std::vector<MigrationRecord> migrations_;
  std::array<std::int64_t, kMigrationCauseNames.size()> cause_counts_;
  /// Correctly-sized all-zero row returned for tasks that never ran, so
  /// callers may always index [core].
  std::vector<SimTime> empty_;
  obs::RunRecorder* recorder_ = nullptr;
};

/// Execution time of `task` within the window [from, to), clipped at the
/// window edges, over a snapshot of recorded segments (e.g. a recorder's
/// run_segments().snapshot()). O(segments): for tests and offline
/// inspection, not for a balancer's per-interval read.
SimTime exec_in_window(const std::vector<obs::RunSegmentRecord>& segments,
                       TaskId task, SimTime from, SimTime to);

/// Flush a finished run's metrics into the recorder: "migrations.<cause>"
/// aggregate counters, and the run's kept segments, handed over in one
/// append (the trace writer derives "run" spans from them lazily).
void export_run_to_recorder(Metrics& metrics, obs::RunRecorder& rec);

}  // namespace speedbal
