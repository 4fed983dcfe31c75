#include "app/spmd.hpp"

#include <algorithm>
#include <stdexcept>

namespace speedbal {
namespace {

/// CPU cost of one SleepPoll barrier check (flag read + yield/usleep setup).
constexpr SimTime kPollCost = usec(2);

}  // namespace

SpmdApp::SpmdApp(Simulator& sim, SpmdAppSpec spec)
    : sim_(sim), spec_(std::move(spec)), rng_(0) {
  if (spec_.nthreads < 1 || spec_.phases < 1)
    throw std::invalid_argument("SpmdApp: nthreads and phases must be >= 1");
}

void SpmdApp::launch(Placement placement, std::span<const CoreId> cores) {
  if (!threads_.empty()) throw std::logic_error("SpmdApp::launch called twice");
  if (cores.empty()) throw std::invalid_argument("SpmdApp: no cores");
  cores_.assign(cores.begin(), cores.end());
  rng_ = sim_.rng().fork();
  start_time_ = last_release_ = sim_.now();

  std::uint64_t mask = 0;
  for (CoreId c : cores_) mask |= 1ULL << c;

  for (int i = 0; i < spec_.nthreads; ++i) {
    TaskSpec ts;
    ts.name = spec_.name + "." + std::to_string(i);
    ts.client = this;
    ts.mem_footprint_kb = spec_.mem_footprint_kb;
    ts.mem_intensity = spec_.mem_intensity;
    ts.mem_bw_demand = spec_.mem_bw_demand;
    Task& t = sim_.create_task(ts);
    threads_.push_back(&t);
    ThreadState st;
    st.index = i;
    states_.push_back(st);
    sim_.assign_work(t, phase_work(i));
    if (placement == Placement::RoundRobin) {
      sim_.start_task_on(t, cores_[static_cast<std::size_t>(i) % cores_.size()],
                         mask);
    } else {
      sim_.start_task(t, mask);
    }
  }
}

double SpmdApp::phase_work(int thread_index) {
  double w = spec_.work_per_phase_us;
  if (spec_.partitioner != nullptr) {
    w = spec_.partitioner->thread_share(thread_index, spec_.nthreads) *
        spec_.nthreads * spec_.work_per_phase_us;
  } else if (spec_.thread_skew != 0.0 && spec_.nthreads > 1) {
    const double pos =
        static_cast<double>(thread_index) / (spec_.nthreads - 1) - 0.5;
    w *= 1.0 + spec_.thread_skew * pos;
  }
  if (spec_.work_jitter > 0.0)
    w *= 1.0 + rng_.uniform(-spec_.work_jitter, spec_.work_jitter);
  return std::max(w, 1.0);
}

void SpmdApp::on_work_complete(Simulator& sim, Task& task) {
  auto it = std::find(threads_.begin(), threads_.end(), &task);
  if (it == threads_.end()) throw std::logic_error("SpmdApp: unknown task");
  auto& st = states_[static_cast<std::size_t>(it - threads_.begin())];

  if (st.in_barrier) {
    // A SleepPoll check ran and the barrier is still closed: poll again.
    sim.assign_work(task, static_cast<double>(kPollCost));
    sim.sleep_task_for(task, spec_.barrier.poll_period);
    return;
  }
  arrive(sim, task);
}

void SpmdApp::arrive(Simulator& sim, Task& task) {
  auto it = std::find(threads_.begin(), threads_.end(), &task);
  auto& st = states_[static_cast<std::size_t>(it - threads_.begin())];
  st.in_barrier = true;
  st.generation = generation_;
  ++arrived_;
  if (arrived_ == spec_.nthreads) {
    release(sim);
    return;
  }

  switch (spec_.barrier.policy) {
    case WaitPolicy::Spin:
      sim.set_wait_mode(task, WaitMode::Spin);
      break;
    case WaitPolicy::Yield:
      sim.set_wait_mode(task, WaitMode::Yield);
      break;
    case WaitPolicy::Sleep: {
      if (spec_.barrier.block_time <= 0) {
        sim.sleep_task(task);
        break;
      }
      // Poll for block_time, then block (Intel OpenMP KMP_BLOCKTIME).
      sim.set_wait_mode(task, WaitMode::Spin);
      const std::size_t idx = static_cast<std::size_t>(it - threads_.begin());
      const std::uint64_t gen = generation_;
      Task* tp = &task;
      sim.schedule_after(spec_.barrier.block_time, [this, idx, gen, tp] {
        const auto& s = states_[idx];
        if (finished_ || !s.in_barrier || s.generation != gen) return;
        if (tp->state() == TaskState::Sleeping) return;
        sim_.sleep_task(*tp);
      });
      break;
    }
    case WaitPolicy::SleepPoll:
      // usleep(1)-style: block briefly, wake, re-check, block again.
      sim.assign_work(task, static_cast<double>(kPollCost));
      sim.sleep_task_for(task, spec_.barrier.poll_period);
      break;
  }
}

void SpmdApp::release(Simulator& sim) {
  ++generation_;
  arrived_ = 0;
  const SimTime now = sim.now();
  phase_times_.push_back(now - last_release_);
  last_release_ = now;
  const bool done = generation_ >= static_cast<std::uint64_t>(spec_.phases);

  for (std::size_t i = 0; i < threads_.size(); ++i) {
    states_[i].in_barrier = false;
    Task* t = threads_[i];
    if (done) {
      sim.finish_task(*t);
    } else {
      sim.assign_work(*t, phase_work(static_cast<int>(i)));
      if (t->state() == TaskState::Sleeping) sim.wake_task(*t);
    }
  }
  if (done) {
    completion_time_ = now;
    finished_ = true;
  }
}

}  // namespace speedbal
