#pragma once

#include "sim/task.hpp"
#include "topo/domains.hpp"
#include "topo/topology.hpp"
#include "util/time.hpp"

namespace speedbal {

/// Parameters of the memory-system model: migration cache-refill costs,
/// NUMA remote-access penalties and bandwidth saturation.
/// Defaults are calibrated to the figures the paper cites: migration costs
/// range from microseconds (footprint within cache) to ~2 ms (larger than
/// cache) on the UMA Intel systems (Li et al., quoted in Section 4).
struct MemoryModelParams {
  /// Last-level cache capacity per cache group (Tigerton: 4 MB L2 per pair).
  double llc_kb = 4096.0;
  /// Cost to re-warm one KB of cached state after a cross-cache migration.
  double refill_us_per_kb = 0.5;
  /// Fixed kernel cost of any migration (run-queue manipulation).
  double migration_fixed_us = 5.0;
  /// Extra one-time cost multiplier for crossing a NUMA boundary.
  double numa_refill_factor = 2.0;
  /// Steady-state slowdown of memory accesses to a remote NUMA node.
  double numa_remote_penalty = 0.4;
  /// Aggregate memory bandwidth capacity, in units of "one fully
  /// memory-bound task", per NUMA node and for the whole system. A UMA
  /// front-side-bus machine is modeled with a low system capacity; a NUMA
  /// machine scales with its nodes.
  double node_bw_capacity = 4.0;
  double system_bw_capacity = 16.0;
};

/// Computes the performance effects of the memory system. Pure functions of
/// (topology, params, task placement); owned by the Simulator.
class MemoryModel {
 public:
  MemoryModel(const Topology& topo, MemoryModelParams params);

  const MemoryModelParams& params() const { return params_; }

  /// One-time overhead (microseconds of work at nominal speed) charged to a
  /// task migrated from core `from` to core `to`: lost cache state that must
  /// be refilled, bounded by the LLC capacity. Zero-footprint tasks pay only
  /// the fixed kernel cost.
  double migration_cost_us(const Task& t, CoreId from, CoreId to) const;

  /// Steady-state speed factor (0, 1] for `t` executing on `core`, given the
  /// total memory-bandwidth demand currently running on the core's NUMA node
  /// and system-wide (including `t` itself). Combines the NUMA remote-access
  /// penalty with bandwidth saturation.
  double speed_factor(const Task& t, CoreId core, double node_demand,
                      double system_demand) const;

  /// Default parameter sets matching the paper's two test systems (Table 1):
  /// Tigerton's shared front-side bus saturates early; Barcelona has
  /// per-node memory controllers but pays remote-access penalties.
  static MemoryModelParams tigerton_params();
  static MemoryModelParams barcelona_params();
  static MemoryModelParams for_topology(const Topology& topo);

 private:
  const Topology* topo_;
  MemoryModelParams params_;
};

}  // namespace speedbal
