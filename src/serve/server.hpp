#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.hpp"
#include "serve/dispatch.hpp"
#include "serve/request.hpp"
#include "sim/simulator.hpp"
#include "util/enum_names.hpp"
#include "util/fifo.hpp"
#include "util/stats.hpp"
#include "util/winner_tree.hpp"

namespace speedbal::serve {

/// What a worker does when its shard queue empties — the serving analogue
/// of the paper's barrier wait modes (Section 3), and the fork in the road
/// for every balancer: a sleeping worker leaves the run queue (queue
/// lengths carry load information, and the kernel re-places it at every
/// wake), while a polling worker stays runnable (queue lengths are flat and
/// only *speed* reveals where capacity is).
enum class IdleMode {
  Sleep,  ///< Block on the empty queue; woken by the next dispatch.
  Yield,  ///< Busy-poll with sched_yield (DPDK/seastar-style runtimes).
};

inline constexpr auto kIdleModeNames =
    enum_names<IdleMode>("idle mode", "sleep", "yield");
static_assert(kIdleModeNames.ends_at(IdleMode::Yield));

inline const char* to_string(IdleMode m) { return kIdleModeNames[m]; }
inline IdleMode parse_idle_mode(std::string_view name) {
  return kIdleModeNames.parse(name);
}

/// Tunables of the serving runtime.
struct ServeParams {
  /// Worker threads in the pool. More workers than cores is the interesting
  /// regime: placement then matters, and that is what the balancers under
  /// test control.
  int workers = 8;
  /// Admission control: waiting requests a shard may hold (excludes the one
  /// in service). A request dispatched to a full shard is dropped — the
  /// load-shedding answer to unbounded queueing delay. <= 0 disables.
  int queue_capacity = 64;
  DispatchPolicy dispatch = DispatchPolicy::JoinShortestQueue;
  IdleMode idle = IdleMode::Sleep;
  /// Requests arriving before this instant are served but not recorded.
  SimTime warmup = 0;
  /// Recorder queue-depth sampling period (0 disables sampling).
  SimTime sample_interval = msec(10);
  /// Per-worker memory behaviour (see TaskSpec); requests inherit it.
  double mem_footprint_kb = 0.0;
  double mem_intensity = 0.0;
  /// Request-span sampling period as log2: sample every 2^k-th request id
  /// (0 = every request, 6 = 1/64, negative disables span tracing). Only
  /// effective with a recorder attached. Sampling is a deterministic id
  /// test, so it never perturbs simulation results.
  int span_sampling_log2 = 0;
};

/// Tail-latency accounting for one serve run. Counters cover requests that
/// arrive after warmup; histograms are in nanoseconds. The counters are
/// always kept. The two histograms are filled only while no completion hook
/// is set: a hook owns each finished request's latency record (see
/// ServeRuntime::set_completion_hook), so under a hook they stay empty.
struct ServeStats {
  std::int64_t offered = 0;    ///< Post-warmup arrivals.
  std::int64_t admitted = 0;   ///< Accepted into a shard queue.
  std::int64_t dropped = 0;    ///< Rejected by admission control.
  std::int64_t completed = 0;  ///< Finished inside the measured window.
  int max_queue_depth = 0;     ///< Deepest shard queue ever observed.
  LatencyHistogram latency;     ///< Sojourn: completion - arrival.
  LatencyHistogram queue_wait;  ///< Dispatch delay: started - arrival.

  double drop_rate() const {
    return offered > 0 ? static_cast<double>(dropped) /
                             static_cast<double>(offered)
                       : 0.0;
  }
  /// Completed requests per second of measured (post-warmup) time.
  double goodput_rps(SimTime measured_window) const {
    return measured_window > 0
               ? static_cast<double>(completed) / to_sec(measured_window)
               : 0.0;
  }
};

/// The request-serving runtime: a pool of simulated worker threads, each
/// owning one bounded request queue (a shard). An open-loop load generator
/// injects requests; the dispatch layer routes each to a shard (round-robin
/// / least-loaded / JSQ) or drops it when the shard is full. Workers sleep
/// when their shard empties and are woken by the next dispatch, so the
/// run-queue picture the balancers observe is exactly what a real serving
/// process shows the kernel: busy workers on-queue, idle workers blocked.
///
/// Crucially the runtime never places workers itself after launch — thread
/// placement and migration belong to the attached balancer (src/balance),
/// which is the variable under test.
class ServeRuntime : public TaskClient {
 public:
  ServeRuntime(Simulator& sim, ServeParams params);

  /// Create and start the worker tasks on `cores`. `round_robin` pins the
  /// initial placement (PINNED-style launch); otherwise Linux fork placement
  /// chooses. Call once.
  void open(std::span<const CoreId> cores, bool round_robin);

  /// Dispatch one request at sim.now(). Returns false iff dropped.
  bool inject(Request r);

  /// Per-worker weights for DispatchPolicy::Weighted (smooth weighted
  /// round-robin); the SHARE balancer pushes its per-core capacity shares
  /// here on every adopted repartition. Size must match workers(). The WRR
  /// credit state is preserved across weight updates of the same size, so a
  /// repartition re-aims the stream without a dispatch burst. Ignored under
  /// the other dispatch policies.
  void set_shard_weights(const std::vector<double>& weights);

  /// Stop recorder sampling (the run is over; workers may still drain).
  void close();

  // --- Pool-migration hooks (cluster layer) -------------------------------
  //
  // A cluster migrates a whole pool by draining its waiting requests (they
  // re-dispatch at the destination), letting in-service requests finish on
  // the source, and retiring the source workers once the pool is empty.

  /// Observer invoked for *every* finished request, recorded or not, after
  /// the stats counters are updated. The hook owns the request's latency
  /// record: while one is set, stats().latency and stats().queue_wait are
  /// not filled, and the hook records whatever its owner needs. The cluster
  /// layer uses it for its end-to-end latency, its conservation accounting
  /// and drain tracking; single-machine runs leave it unset.
  void set_completion_hook(std::function<void(const Request&)> fn) {
    on_complete_ = std::move(fn);
  }

  /// Remove and return every *waiting* request (in-service requests are
  /// untouched), shard 0..n in FIFO order — deterministic. In-flight
  /// accounting is reduced accordingly; the caller owns re-dispatching them.
  std::vector<Request> drain_queued();

  /// Finish all worker tasks. Only legal once the pool holds no work
  /// (in_flight() == 0, typically after drain_queued plus waiting out the
  /// in-service tail); must not be called from inside this pool's own
  /// completion path — defer via Simulator::schedule_at. Idempotent.
  void retire();
  bool retired() const { return retired_; }

  Simulator& simulator() { return sim_; }
  const std::vector<Task*>& workers() const { return workers_; }
  const ServeStats& stats() const { return stats_; }
  ServeStats& stats() { return stats_; }

  int queued(int worker) const;
  int total_queued() const;
  int busy_workers() const;
  std::int64_t in_flight() const;  ///< Admitted but not yet completed.

  void set_recorder(obs::RunRecorder* rec) { recorder_ = rec; }

  void on_work_complete(Simulator& sim, Task& task) override;

 private:
  struct Shard {
    Fifo<Request> queue;
    bool busy = false;         ///< Work (request or bootstrap) in service.
    bool has_current = false;  ///< `current` holds a real request.
    Request current;
    double queued_demand_us = 0.0;  ///< Sum of waiting requests' service.
    // Span capture state for `current` (valid when cur_sampled). Snapshots
    // of the worker task's accounting taken when the request entered
    // service, so completion-time deltas attribute exactly.
    bool cur_sampled = false;
    SimTime cur_exec_start = 0;
    double cur_warm_start = 0.0;
    int cur_mig_start = 0;
  };

  /// Re-key `worker`'s leaf in index_ after its load changed. A no-op for
  /// the policies that keep no index (round-robin, weighted).
  void reindex(int worker);
  void start_next(int worker);
  void finish_current(int worker);
  void sample();

  Simulator& sim_;
  ServeParams params_;
  obs::SpanSampler sampler_;
  std::vector<Task*> workers_;
  /// TaskId -> worker index for O(1) completion lookup (built in open();
  /// -1 marks ids that are not this pool's workers). Completions fire once
  /// per finished request, so the old linear scan over workers_ made every
  /// completion O(workers).
  std::vector<int> worker_index_;
  std::vector<Shard> shards_;
  /// Shard loads under JSQ (waiting + in service) or least-loaded (pending
  /// demand); empty under the other policies.
  WinnerTree<double> index_;
  std::uint64_t rr_cursor_ = 0;
  std::vector<double> shard_weights_;  ///< Empty until set_shard_weights.
  std::vector<double> wrr_credit_;     ///< Smooth-WRR running credit.
  bool open_ = true;
  bool retired_ = false;
  ServeStats stats_;
  std::int64_t in_flight_ = 0;
  obs::RunRecorder* recorder_ = nullptr;
  std::function<void(const Request&)> on_complete_;
};

}  // namespace speedbal::serve
