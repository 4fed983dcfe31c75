#pragma once

#include <vector>

#include "app/barrier.hpp"
#include "app/spmd.hpp"

namespace speedbal::workload {

/// Barrier configurations matching the runtimes the paper evaluates
/// (Section 3 and 6.2).

/// Berkeley UPC / MPI default: poll + sched_yield when oversubscribed.
BarrierConfig upc_yield_barrier();

/// Intel OpenMP default: poll for KMP_BLOCKTIME (200 ms) then sleep.
BarrierConfig intel_omp_default_barrier();

/// Intel OpenMP with KMP_BLOCKTIME=infinite: pure polling.
BarrierConfig omp_polling_barrier();

/// The paper's modified UPC runtime that calls usleep(1) in the wait loop.
BarrierConfig usleep_barrier();

/// Quick builder for uniform synthetic SPMD apps used across the tests.
SpmdAppSpec uniform_app(int nthreads, int phases, double work_per_phase_us,
                        BarrierConfig barrier = upc_yield_barrier());

/// The contiguous core subset {0..k-1}: the taskset the paper uses ("a
/// subset that spans the fewest scheduling domains").
std::vector<CoreId> first_cores(int k);

}  // namespace speedbal::workload
