#include "workload/generator.hpp"

#include <numeric>

namespace speedbal::workload {

BarrierConfig upc_yield_barrier() {
  BarrierConfig b;
  b.policy = WaitPolicy::Yield;
  return b;
}

BarrierConfig intel_omp_default_barrier() {
  BarrierConfig b;
  b.policy = WaitPolicy::Sleep;
  b.block_time = msec(200);
  return b;
}

BarrierConfig omp_polling_barrier() {
  BarrierConfig b;
  b.policy = WaitPolicy::Spin;
  return b;
}

BarrierConfig usleep_barrier() {
  BarrierConfig b;
  b.policy = WaitPolicy::SleepPoll;
  b.poll_period = msec(1);  // usleep(1) rounds up to the timer granularity.
  return b;
}

SpmdAppSpec uniform_app(int nthreads, int phases, double work_per_phase_us,
                        BarrierConfig barrier) {
  SpmdAppSpec spec;
  spec.name = "uniform";
  spec.nthreads = nthreads;
  spec.phases = phases;
  spec.work_per_phase_us = work_per_phase_us;
  spec.barrier = barrier;
  return spec;
}

std::vector<CoreId> first_cores(int k) {
  std::vector<CoreId> cores(static_cast<std::size_t>(k));
  std::iota(cores.begin(), cores.end(), 0);
  return cores;
}

}  // namespace speedbal::workload
