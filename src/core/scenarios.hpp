#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.hpp"
#include "util/enum_names.hpp"
#include "workload/npb.hpp"

namespace speedbal::scenarios {

/// The named configurations plotted in the paper's figures (Fig. 3, 5, 6):
/// a balancing policy combined with a barrier implementation.
enum class Setup {
  OnePerCore,  ///< Recompiled with one thread per core, pinned (the ideal).
  Pinned,      ///< Fixed thread count, static round-robin pinning.
  LoadYield,   ///< Linux balancing; sched_yield barriers (UPC/MPI default).
  LoadSleep,   ///< Linux balancing; usleep(1) barriers (modified runtime).
  SpeedYield,  ///< Speed balancing; sched_yield barriers.
  SpeedSleep,  ///< Speed balancing; usleep(1) barriers.
  Dwrr,        ///< DWRR kernel; sched_yield barriers.
  FreeBsd,     ///< ULE push balancer; sched_yield barriers.
};

inline constexpr auto kSetupNames = enum_names<Setup>(
    "setup", "One-per-core", "PINNED", "LOAD-YIELD", "LOAD-SLEEP",
    "SPEED-YIELD", "SPEED-SLEEP", "DWRR", "FreeBSD");
static_assert(kSetupNames.ends_at(Setup::FreeBsd));

inline const char* to_string(Setup s) { return kSetupNames[s]; }

/// Build the experiment configuration for running `prof` compiled with
/// `nthreads` threads on the first `cores` cores of `topo` under `setup`.
/// (For OnePerCore the thread count is clamped to the core count, as the
/// paper recompiles the benchmark.)
ExperimentConfig npb_config(const Topology& topo, const NpbProfile& prof,
                            int nthreads, int cores, Setup setup,
                            int repeats = 10, std::uint64_t seed = 42);

/// Run the configuration built by npb_config. `jobs` replicas execute
/// concurrently (see ExperimentConfig::jobs); results are identical for
/// any value.
ExperimentResult run_npb(const Topology& topo, const NpbProfile& prof,
                         int nthreads, int cores, Setup setup,
                         int repeats = 10, std::uint64_t seed = 42,
                         int jobs = 1);

/// Baseline for speedup curves: the same `nthreads`-thread binary run on a
/// single core (pinned). One run suffices — it is deterministic up to work
/// jitter.
double serial_runtime_s(const Topology& topo, const NpbProfile& prof,
                        int nthreads, std::uint64_t seed = 42);

}  // namespace speedbal::scenarios
