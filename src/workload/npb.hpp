#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "app/spmd.hpp"

namespace speedbal {

/// Synthetic profile of one NAS Parallel Benchmark, calibrated to the
/// observables the schedulers react to (Table 2 of the paper): inter-barrier
/// computation time, synchronization count, resident set size, and memory
/// intensity. The reference values describe a 16-thread run of the listed
/// class; `to_spec` rescales per-thread work when the thread count changes
/// (fixed problem size, SPMD decomposition).
struct NpbProfile {
  std::string benchmark;  ///< "ep", "bt", "ft", "is", "sp", "cg", "mg", "lu".
  char klass = 'A';       ///< NPB class: S, A, B or C.
  int phases = 1;                   ///< Barrier count over the run.
  double work_per_phase_us = 0.0;   ///< Per-thread compute between barriers.
  double rss_mb_per_core = 0.0;     ///< Table 2 "RSS" column.
  double mem_intensity = 0.0;       ///< Fraction of time that is memory-bound.
  double mem_bw_demand = 0.0;       ///< Bandwidth demand per running thread.
  double work_jitter = 0.02;        ///< Natural per-phase imbalance.

  std::string full_name() const { return benchmark + "." + klass; }

  /// Build an application spec for `nthreads` threads with the given
  /// barrier implementation.
  SpmdAppSpec to_spec(int nthreads, const BarrierConfig& barrier) const;
};

/// Factories for the benchmarks the paper uses. Each takes the NPB class;
/// per-class work scales by the canonical ~4x per class step (S << A < B < C).
namespace npb {

NpbProfile ep(char klass = 'C');  ///< Embarrassingly parallel; no memory.
NpbProfile bt(char klass = 'A');  ///< Block tridiagonal; memory heavy.
NpbProfile ft(char klass = 'B');  ///< 3-D FFT; large RSS, coarse barriers.
NpbProfile is(char klass = 'C');  ///< Integer sort; bandwidth bound.
NpbProfile sp(char klass = 'A');  ///< Pentadiagonal; fine-grained barriers.
NpbProfile cg(char klass = 'B');  ///< Conjugate gradient; 4 ms barriers (§6.2).
NpbProfile mg(char klass = 'B');  ///< Multigrid.
NpbProfile lu(char klass = 'A');  ///< LU decomposition.

/// Look up "bt.A"-style names; throws std::invalid_argument if unknown.
NpbProfile by_name(std::string_view name);

/// The representative sample of Table 2 (plus cg.B used in the text).
std::vector<NpbProfile> paper_selection();

}  // namespace npb
}  // namespace speedbal
