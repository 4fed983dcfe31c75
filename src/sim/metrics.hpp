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

/// One contiguous stretch of execution of a task on a core. The Simulator
/// records one segment per dispatch, from the dispatch to the moment the task
/// stops running; a Simulator::sync_accounting in the middle of a stretch
/// splits it into adjacent pieces (same task, same core, end == next start).
/// Speed changes do not split a segment.
struct RunSegment {
  TaskId task = -1;
  CoreId core = -1;
  SimTime start = 0;
  SimTime dur = 0;
};

/// Run-wide observability: execution per task per core, the run-segment log,
/// the migration log and its per-cause tally. Collected unconditionally; the
/// invariant probes read the exec table, the recorder export reads the
/// segment log, and the property tests and figure harnesses read both.
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
  /// `core` and appends the segment to the log.
  void record_exec(TaskId task, CoreId core, SimTime start, SimTime dur);

  void record_migration(const MigrationRecord& rec);

  /// Attach an observability recorder: every subsequent migration is also
  /// appended to the recorder's migration log. Null (the default) disables
  /// it at the cost of one pointer test per migration.
  void set_recorder(obs::RunRecorder* rec) { recorder_ = rec; }
  obs::RunRecorder* recorder() const { return recorder_; }

  /// Every recorded segment, in recording order.
  const std::vector<RunSegment>& segments() const { return segments_; }

  /// Execution time of `task` within the window [from, to), clipped at the
  /// window edges. Scans the segment log: O(segments), for tests and
  /// offline inspection, not for a balancer's per-interval read.
  SimTime exec_in_window(TaskId task, SimTime from, SimTime to) const;

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

  /// Clear all recorded state for reuse by another run.
  void reset();

  int num_cores() const { return num_cores_; }

 private:
  int num_cores_;
  /// Per-task per-core execution, indexed [task][core]; rows are allocated
  /// on a task's first run.
  std::vector<std::vector<SimTime>> exec_;
  std::vector<RunSegment> segments_;
  std::vector<MigrationRecord> migrations_;
  std::array<std::int64_t, kMigrationCauseNames.size()> cause_counts_;
  /// Correctly-sized all-zero row returned for tasks that never ran, so
  /// callers may always index [core].
  std::vector<SimTime> empty_;
  obs::RunRecorder* recorder_ = nullptr;
};

/// Flush a finished run's metrics into the recorder: one bulk append of
/// compact run-segment records, built only for the room left under the
/// table's cap (the trace writer derives "run" spans from them lazily), and
/// "migrations.<cause>" aggregate counters. `node` tags the
/// segments with a cluster node id (-1 = single-machine run); node-tagged
/// segments render on per-node Chrome-trace tracks.
void export_run_to_recorder(const Metrics& metrics, obs::RunRecorder& rec,
                            int node = -1);

}  // namespace speedbal
