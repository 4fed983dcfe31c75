#pragma once

#include <string>
#include <vector>

#include "native/affinity.hpp"

namespace speedbal::native {

/// One logical CPU as described by /sys/devices/system/cpu (what the real
/// speedbalancer reads to learn the scheduling domains, Section 5.2).
struct SysCpu {
  int cpu = -1;
  int package_id = 0;        ///< physical_package_id.
  int numa_node = 0;         ///< node* directory membership.
  CpuSet thread_siblings;    ///< SMT contexts sharing the physical core.
  CpuSet cache_siblings;     ///< CPUs sharing the last-level cache.
};

/// Discovered machine topology.
struct SysTopology {
  std::vector<SysCpu> cpus;

  int num_cpus() const { return static_cast<int>(cpus.size()); }
  bool same_cache(int a, int b) const;
  bool same_numa(int a, int b) const;
};

/// Read the topology from a sysfs tree; `root` defaults to the real sysfs
/// and is injectable so tests can use a synthetic tree. Missing files
/// degrade gracefully (single package, no SMT) rather than failing — the
/// balancer must run on minimal containers.
SysTopology read_sys_topology(const std::string& root = "/sys/devices/system/cpu");

}  // namespace speedbal::native
