#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/cfs_queue.hpp"
#include "sim/task.hpp"
#include "util/time.hpp"

namespace speedbal {

/// Struct-of-arrays backing store for the per-core dispatch state touched on
/// every event, indexed by CoreId. The Simulator owns one store for all its
/// cores; scans like "who is running everywhere" walk one dense array each
/// instead of striding across CoreState objects, and the online set is one
/// bitmask.
class CoreStore {
 public:
  void init(std::size_t n) {
    running.assign(n, nullptr);
    run_start.assign(n, SimTime{0});
    slice_end.assign(n, SimTime{0});
    seg_start.assign(n, SimTime{0});
    current_speed.assign(n, 1.0);
    busy_time.assign(n, SimTime{0});
    idle_since.assign(n, SimTime{0});
    online = n >= 64 ? ~0ULL : (1ULL << n) - 1;
    in_dispatch.assign(n, std::uint8_t{0});
  }

  std::vector<Task*> running;
  /// Time up to which the running task's execution is accounted: the
  /// dispatch, or the last flush (every speed change flushes).
  std::vector<SimTime> run_start;
  std::vector<SimTime> slice_end;   ///< When the current timeslice expires.
  /// Start of the running task's unrecorded run segment: the dispatch, or
  /// the last sync_accounting of this core.
  std::vector<SimTime> seg_start;
  std::vector<double> current_speed;
  std::vector<SimTime> busy_time;
  std::vector<SimTime> idle_since;
  /// Bit c set iff core c is online (Linux cpu_online_mask); written only
  /// by Simulator::set_core_online.
  std::uint64_t online = 0;
  /// Dispatch re-entrancy latch (idle hooks may call back into dispatch).
  std::vector<std::uint8_t> in_dispatch;
};

/// Per-core scheduler state: the CFS run queue plus the dispatch bookkeeping
/// the Simulator needs (who is running, since when, at what effective speed,
/// and when the current timeslice ends). The hot fields
/// live in the Simulator's CoreStore; accessors read through to it.
class CoreState {
 public:
  CoreState(CoreId id, CfsParams params, CoreStore& store)
      : id_(id), queue_(params), store_(&store) {}

  CoreId id() const { return id_; }
  CfsQueue& queue() { return queue_; }
  const CfsQueue& queue() const { return queue_; }

  Task* running() const { return store_->running[cid()]; }
  bool idle() const { return running() == nullptr && queue_.empty(); }

  /// Hotplug state: offline cores execute nothing and reject placements
  /// (Simulator::set_core_online drains them). Mirrors Linux cpu_online_mask.
  bool online() const { return ((store_->online >> cid()) & 1ULL) != 0; }

  /// Effective execution speed of the running task (clock scale x memory
  /// effects); meaningless when nothing is running.
  double current_speed() const { return store_->current_speed[cid()]; }

  /// Cumulative time this core spent executing any task.
  SimTime busy_time() const { return store_->busy_time[cid()]; }
  /// Simulation time at which the core last became idle (kNever if busy).
  SimTime idle_since() const { return store_->idle_since[cid()]; }

 private:
  friend class Simulator;

  std::size_t cid() const { return static_cast<std::size_t>(id_); }

  Task*& running_ref() { return store_->running[cid()]; }
  SimTime& run_start_ref() { return store_->run_start[cid()]; }
  SimTime& slice_end_ref() { return store_->slice_end[cid()]; }
  SimTime& seg_start_ref() { return store_->seg_start[cid()]; }
  double& current_speed_ref() { return store_->current_speed[cid()]; }
  SimTime& busy_time_ref() { return store_->busy_time[cid()]; }
  SimTime& idle_since_ref() { return store_->idle_since[cid()]; }
  std::uint8_t& in_dispatch_ref() { return store_->in_dispatch[cid()]; }

  CoreId id_;
  CfsQueue queue_;
  CoreStore* store_;
};

}  // namespace speedbal
