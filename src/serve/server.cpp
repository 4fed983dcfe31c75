#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace speedbal::serve {

namespace {
/// Bootstrap work that parks each worker into its steady-state sleep/wake
/// cycle (a worker must be started with work before it can block).
constexpr double kBootWorkUs = 1.0;
}  // namespace

ServeRuntime::ServeRuntime(Simulator& sim, ServeParams params)
    : sim_(sim), params_(params), sampler_(params.span_sampling_log2) {
  if (params_.workers < 1)
    throw std::invalid_argument("ServeRuntime: workers must be >= 1");
}

void ServeRuntime::open(std::span<const CoreId> cores, bool round_robin) {
  if (!workers_.empty()) throw std::logic_error("ServeRuntime::open called twice");
  if (cores.empty()) throw std::invalid_argument("ServeRuntime: no cores");

  std::uint64_t mask = 0;
  for (CoreId c : cores) mask |= 1ULL << c;

  shards_.resize(static_cast<std::size_t>(params_.workers));
  if (params_.dispatch == DispatchPolicy::JoinShortestQueue ||
      params_.dispatch == DispatchPolicy::LeastLoaded)
    index_ = WinnerTree<double>(params_.workers, 0.0);
  for (int i = 0; i < params_.workers; ++i) {
    TaskSpec ts;
    ts.name = "serve.w" + std::to_string(i);
    ts.client = this;
    ts.mem_footprint_kb = params_.mem_footprint_kb;
    ts.mem_intensity = params_.mem_intensity;
    Task& t = sim_.create_task(ts);
    workers_.push_back(&t);
    const auto id = static_cast<std::size_t>(t.id());
    if (worker_index_.size() <= id) worker_index_.resize(id + 1, -1);
    worker_index_[id] = i;
    shards_[static_cast<std::size_t>(i)].busy = true;  // Bootstrap work.
    reindex(i);
    sim_.assign_work(t, kBootWorkUs);
    if (round_robin) {
      sim_.start_task_on(
          t, cores[static_cast<std::size_t>(i) % cores.size()], mask);
    } else {
      sim_.start_task(t, mask);
    }
  }

  if (recorder_ != nullptr && params_.sample_interval > 0)
    sim_.schedule_after(params_.sample_interval, [this] { sample(); });
}

void ServeRuntime::set_shard_weights(const std::vector<double>& weights) {
  if (static_cast<int>(weights.size()) != params_.workers)
    throw std::invalid_argument(
        "ServeRuntime::set_shard_weights: size must equal workers");
  shard_weights_ = weights;
}

void ServeRuntime::reindex(int worker) {
  const Shard& s = shards_[static_cast<std::size_t>(worker)];
  if (params_.dispatch == DispatchPolicy::JoinShortestQueue)
    index_.update(worker,
                  static_cast<double>(s.queue.size() + (s.busy ? 1 : 0)));
  else if (params_.dispatch == DispatchPolicy::LeastLoaded)
    index_.update(worker, s.queued_demand_us +
                              (s.has_current ? s.current.service_us : 0.0));
}

bool ServeRuntime::inject(Request r) {
  if (workers_.empty()) throw std::logic_error("ServeRuntime: not open");
  if (retired_) throw std::logic_error("ServeRuntime: inject on retired pool");
  if (r.recorded) ++stats_.offered;

  int w;
  if (index_.size() > 0) {
    w = index_.winner();
  } else if (params_.dispatch == DispatchPolicy::Weighted &&
             !shard_weights_.empty()) {
    w = pick_weighted(shard_weights_, wrr_credit_, rr_cursor_);
  } else {  // Round-robin, and weighted before any weights arrive.
    w = static_cast<int>(rr_cursor_++ % shards_.size());
  }
  Shard& shard = shards_[static_cast<std::size_t>(w)];

  if (params_.queue_capacity > 0 &&
      static_cast<int>(shard.queue.size()) >= params_.queue_capacity) {
    if (r.recorded) ++stats_.dropped;
    if (recorder_ != nullptr) {
      recorder_->incr("serve.dropped");
      recorder_->drops().add(
          {sim_.now(), r.id, w, workers_[static_cast<std::size_t>(w)]->core()});
    }
    return false;
  }

  if (r.recorded) ++stats_.admitted;
  ++in_flight_;
  shard.queue.push_back(r);
  shard.queued_demand_us += r.service_us;
  stats_.max_queue_depth =
      std::max(stats_.max_queue_depth, static_cast<int>(shard.queue.size()));
  if (shard.busy) reindex(w);
  else start_next(w);
  return true;
}

void ServeRuntime::start_next(int worker) {
  Shard& shard = shards_[static_cast<std::size_t>(worker)];
  shard.current = shard.queue.front();
  shard.queue.pop_front();
  // An emptied queue owes exactly nothing: subtracting the same doubles in
  // FIFO order leaves a rounding residue that would lose least-loaded ties.
  shard.queued_demand_us =
      shard.queue.empty()
          ? 0.0
          : std::max(0.0, shard.queued_demand_us - shard.current.service_us);
  shard.current.started = sim_.now();
  shard.has_current = true;
  shard.busy = true;
  reindex(worker);
  Task& t = *workers_[static_cast<std::size_t>(worker)];
  // Span capture: a pure read-side snapshot, taken only for sampled
  // recorded requests; never consumes randomness or mutates sim state, so
  // traced and untraced runs are byte-identical. The migration counter is
  // snapped before wake_task (a wake-placement migration belongs to this
  // request); the accounting snapshots after assign_work, which flushes a
  // running worker, so exec/warmup deltas are exact.
  const bool sampled =
      recorder_ != nullptr && shard.current.recorded && sampler_.sampled(shard.current.id);
  shard.cur_sampled = sampled;
  if (sampled) shard.cur_mig_start = t.migrations();
  sim_.assign_work(t, shard.current.service_us);
  sim_.wake_task(t);  // No-op when the worker is already running.
  if (sampled) {
    obs::OverheadMeter::Scoped meter(&recorder_->overhead());
    shard.cur_exec_start = t.total_exec();
    shard.cur_warm_start = t.warmup_time();
  }
}

void ServeRuntime::finish_current(int worker) {
  Shard& shard = shards_[static_cast<std::size_t>(worker)];
  const Request r = shard.current;  // Copy: the completion hook may inject.
  --in_flight_;
  if (r.recorded) {
    ++stats_.completed;
    // A completion hook owns the finished request's latency record (the
    // cluster records end to end, hops included); recording it here as well
    // would pay for histograms nothing reads.
    if (!on_complete_) {
      stats_.latency.record((sim_.now() - r.arrival) * 1000);
      stats_.queue_wait.record((r.started - r.arrival) * 1000);
    }
  }
  if (shard.cur_sampled) {
    // on_work_complete runs after the simulator flushed the worker's
    // accounting (core_stop flushes before the callback), so the deltas
    // below partition the sojourn exactly — the span-conservation invariant.
    obs::OverheadMeter::Scoped meter(&recorder_->overhead());
    const Task& t = *workers_[static_cast<std::size_t>(worker)];
    obs::RequestSpan s;
    s.id = r.id;
    s.cls = r.cls;
    s.worker = worker;
    s.arrival_us = r.arrival;
    s.started_us = r.started;
    s.completed_us = sim_.now();
    s.exec_us = t.total_exec() - shard.cur_exec_start;
    s.stall_us = t.warmup_time() - shard.cur_warm_start;
    s.migrations = t.migrations() - shard.cur_mig_start;
    recorder_->spans().add(s);
    shard.cur_sampled = false;
  }
  shard.has_current = false;
  reindex(worker);  // Before the hook: it may inject into this pool.
  if (on_complete_) on_complete_(r);
}

void ServeRuntime::on_work_complete(Simulator& sim, Task& task) {
  const auto id = static_cast<std::size_t>(task.id());
  const int w = id < worker_index_.size() ? worker_index_[id] : -1;
  if (w < 0) throw std::logic_error("ServeRuntime: unknown worker task");
  Shard& shard = shards_[static_cast<std::size_t>(w)];

  if (shard.has_current) finish_current(w);

  if (!shard.queue.empty()) {
    start_next(w);  // Worker is running; the new work continues seamlessly.
    return;
  }
  shard.busy = false;
  reindex(w);
  if (params_.idle == IdleMode::Sleep) {
    sim.sleep_task(task);
  } else {
    sim.set_wait_mode(task, WaitMode::Yield);  // Busy-poll the empty queue.
  }
}

void ServeRuntime::close() { open_ = false; }

std::vector<Request> ServeRuntime::drain_queued() {
  std::vector<Request> out;
  for (int w = 0; w < static_cast<int>(shards_.size()); ++w) {
    Shard& shard = shards_[static_cast<std::size_t>(w)];
    for (const Request& r : shard.queue) {
      out.push_back(r);
      --in_flight_;
    }
    shard.queue.clear();
    shard.queued_demand_us = 0.0;
    reindex(w);
  }
  return out;
}

void ServeRuntime::retire() {
  if (retired_) return;
  if (in_flight_ != 0)
    throw std::logic_error("ServeRuntime::retire with work in flight");
  retired_ = true;
  close();
  for (Task* t : workers_) sim_.finish_task(*t);
}

int ServeRuntime::queued(int worker) const {
  return static_cast<int>(shards_.at(static_cast<std::size_t>(worker)).queue.size());
}

int ServeRuntime::total_queued() const {
  int n = 0;
  for (const Shard& s : shards_) n += static_cast<int>(s.queue.size());
  return n;
}

int ServeRuntime::busy_workers() const {
  int n = 0;
  for (const Shard& s : shards_) n += s.busy ? 1 : 0;
  return n;
}

std::int64_t ServeRuntime::in_flight() const { return in_flight_; }

void ServeRuntime::sample() {
  if (!open_ || recorder_ == nullptr) return;
  recorder_->trace().counter(
      sim_.now(), "serve load",
      {{"queued", static_cast<double>(total_queued())},
       {"busy", static_cast<double>(busy_workers())}});
  sim_.schedule_after(params_.sample_interval, [this] { sample(); });
}

}  // namespace speedbal::serve
