#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/task.hpp"
#include "topo/topology.hpp"
#include "util/arena.hpp"
#include "util/time.hpp"

namespace speedbal {

/// Why a migration happened; lets the experiments attribute migration
/// volume to each balancing mechanism.
enum class MigrationCause {
  ForkPlacement,    ///< Initial core choice at task start.
  WakePlacement,    ///< Idle-core selection when a sleeper wakes.
  Affinity,         ///< Explicit sched_setaffinity by a user-level balancer.
  LinuxPeriodic,    ///< Linux load balancer periodic pull.
  LinuxNewIdle,     ///< Linux new-idle balancing pull.
  LinuxPush,        ///< Linux migration-thread push to an idle core.
  SpeedBalancer,    ///< The paper's user-level speed balancer.
  Dwrr,             ///< DWRR round balancing steal.
  Ule,              ///< FreeBSD ULE push migration.
  Hotplug,          ///< Forced off an offlined core (perturbation drain).
};

/// Number of MigrationCause enumerators (dense, starting at 0).
inline constexpr std::size_t kNumMigrationCauses =
    static_cast<std::size_t>(MigrationCause::Hotplug) + 1;

const char* to_string(MigrationCause cause);
/// Inverse of to_string; returns Affinity for unrecognized strings.
MigrationCause parse_migration_cause(std::string_view s);

/// One recorded migration event.
struct MigrationRecord {
  SimTime time = 0;
  TaskId task = -1;
  CoreId from = -1;
  CoreId to = -1;
  MigrationCause cause = MigrationCause::Affinity;
};

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

/// Run-wide observability: execution accounting per task per core, the
/// migration log, and completion times. Collected unconditionally (cheap);
/// the property tests and figure harnesses read it back.
///
/// Recording is *staged*: the per-event hot path appends one compact POD to
/// a flat pending buffer (a single store into a linear array — no per-task
/// indexing, no allocator), and the dense tables (per-task-per-core exec,
/// interval accumulators, the segment log) are built in batches — when the
/// buffer fills, or on demand the moment any query method runs. Queries
/// therefore always see exact values; only the *location* of the work moved
/// out of the event loop. Interval lists live in a bump arena so their
/// growth never hits the global allocator; reset() recycles the arena slabs
/// for the next run.
class Metrics {
 public:
  explicit Metrics(int num_cores)
      : num_cores_(num_cores),
        empty_(static_cast<std::size_t>(num_cores), SimTime{0}) {
    cause_counts_.fill(0);
  }

  /// One contiguous execution stretch: stages both the exec-table add and
  /// the segment/interval append in a single record. The Simulator calls it
  /// once per stretch (and at each sync_accounting), not per speed change.
  void record_exec(TaskId task, CoreId core, SimTime start, SimTime dur) {
    stage(task, core, start, dur, kExec | kSegment);
  }

  /// Exec-table-only accounting (no segment); kept for callers that account
  /// execution without timestamps.
  void record_run(TaskId task, CoreId core, SimTime dur) {
    stage(task, core, 0, dur, kExec);
  }

  /// Record run segments with timestamps, without exec-table accounting
  /// (`record_exec` does both). Segment capture costs memory proportional
  /// to context switches; it is always on — runs are short-lived objects.
  /// Segments of one task are expected in non-decreasing start order (they
  /// cannot overlap); out-of-order recording is tolerated but pays a sorted
  /// insert at drain time.
  void record_segment(const RunSegment& seg) {
    stage(seg.task, seg.core, seg.start, seg.dur, kSegment);
  }

  void record_migration(const MigrationRecord& rec);

  /// Attach an observability recorder: every subsequent migration is also
  /// appended to the recorder's telemetry buffer as a compact record (traced
  /// in batches at flush). Registers the MigrationCause names as the
  /// buffer's kind table. Null (the default) disables telemetry at the cost
  /// of one pointer test per migration.
  void set_recorder(obs::RunRecorder* rec);
  obs::RunRecorder* recorder() const { return recorder_; }

  const std::vector<RunSegment>& segments() const {
    drain();
    return segments_;
  }

  /// Execution time of `task` within the window [from, to) (clipped).
  /// O(log segments-of-task) via the per-task interval accumulator.
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

  /// Clear all recorded state for reuse by another run. Retains the outer
  /// table capacities and the interval arena's slabs, so a reused Metrics
  /// reaches its high-water memory once and then records allocation-free.
  void reset();

  /// Records staged but not yet drained into the dense tables (test hook;
  /// any query method drains implicitly).
  std::size_t staged() const { return pending_.size(); }

  int num_cores() const { return num_cores_; }

 private:
  /// One run segment of a task, with the task's cumulative execution before
  /// this segment (`cum`), enabling O(log n) windowed sums.
  struct Interval {
    SimTime start = 0;
    SimTime dur = 0;
    SimTime cum = 0;
    SimTime end() const { return start + dur; }
  };

  /// Staged accounting record (24 bytes). `kind` says which tables the
  /// record feeds when drained.
  struct Pending {
    SimTime start;
    SimTime dur;
    TaskId task;
    std::int16_t core;
    std::uint8_t kind;
  };
  static constexpr std::uint8_t kExec = 1;     ///< per-task-per-core table
  static constexpr std::uint8_t kSegment = 2;  ///< segment log + intervals

  /// Drain the pending buffer when it reaches this many records, bounding
  /// staged memory; queries drain whatever is staged regardless.
  static constexpr std::size_t kDrainBatch = 8192;

  void stage(TaskId task, CoreId core, SimTime start, SimTime dur,
             std::uint8_t kind) {
    pending_.push_back({start, dur, task, static_cast<std::int16_t>(core), kind});
    if (pending_.size() >= kDrainBatch) drain();
  }

  /// Apply every staged record, in recording order, to the dense tables.
  /// Const because queries trigger it: the tables are caches of the staged
  /// stream, so building them does not change observable state.
  void drain() const;
  void drain_segment(TaskId task, CoreId core, SimTime start,
                     SimTime dur) const;

  int num_cores_;
  mutable std::vector<Pending> pending_;
  /// Per-task per-core execution, indexed [task][core]; rows are allocated
  /// on a task's first run.
  mutable std::vector<std::vector<SimTime>> exec_;
  /// Per-task interval accumulator, indexed [task]; sorted by start, with
  /// exactly-adjacent same-core runs merged (exec_in_window is unaffected:
  /// contiguous intervals sum identically merged or split). Backed by the
  /// arena below.
  mutable std::vector<ArenaVector<Interval>> intervals_;
  mutable Arena arena_;
  mutable std::vector<RunSegment> segments_;
  /// Core of the last interval per task, for the adjacent-merge check
  /// (intervals themselves don't store the core).
  mutable std::vector<std::int16_t> last_core_;
  std::vector<MigrationRecord> migrations_;
  std::array<std::int64_t, kNumMigrationCauses> cause_counts_;
  /// Correctly-sized all-zero row returned for tasks that never ran, so
  /// callers may always index [core].
  std::vector<SimTime> empty_;
  obs::RunRecorder* recorder_ = nullptr;
};

/// Flush a finished run's metrics into the recorder: one bulk append of
/// compact run-segment records (the trace writer derives "run" spans from
/// them lazily) and "migrations.<cause>" aggregate counters. `node` tags the
/// segments with a cluster node id (-1 = single-machine run); node-tagged
/// segments render on per-node Chrome-trace tracks.
void export_run_to_recorder(const Metrics& metrics, obs::RunRecorder& rec,
                            int node = -1);

}  // namespace speedbal
