#pragma once

#include <string>
#include <vector>

namespace speedbal::native {

/// One logical CPU as described by /sys/devices/system/cpu (what the real
/// speedbalancer reads to learn the scheduling domains, Section 5.2). The
/// paper's reported runs block only NUMA crossings, so the node is all the
/// native balancer reads.
struct SysCpu {
  int cpu = -1;
  int numa_node = 0;  ///< node* directory membership.
};

/// Discovered machine topology.
struct SysTopology {
  std::vector<SysCpu> cpus;

  int num_cpus() const { return static_cast<int>(cpus.size()); }
  bool same_numa(int a, int b) const;
};

/// Read the topology from a sysfs tree; `root` defaults to the real sysfs
/// and is injectable so tests can use a synthetic tree. Missing files
/// degrade gracefully (one CPU, one NUMA node) rather than failing — the
/// balancer must run on minimal containers.
SysTopology read_sys_topology(const std::string& root = "/sys/devices/system/cpu");

}  // namespace speedbal::native
