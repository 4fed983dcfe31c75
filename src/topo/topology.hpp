#pragma once

#include <string>
#include <vector>

namespace speedbal {

/// Index of a logical CPU (a hardware execution context). SMT siblings are
/// separate CoreIds that share a physical core.
using CoreId = int;

/// Static attributes of one logical CPU.
struct CoreInfo {
  CoreId id = 0;
  int numa_node = 0;    ///< NUMA node (memory locality domain).
  int socket = 0;       ///< Physical package.
  int cache_group = 0;  ///< Last-level-cache sharing group (global index).
  CoreId smt_sibling = -1;  ///< The other hardware context, -1 if none.
  double clock_scale = 1.0; ///< Relative compute speed (1.0 = nominal).
};

/// Shape of a machine to construct. All counts are per enclosing level;
/// cache groups partition each socket. clock_scales, when non-empty, gives a
/// per-logical-CPU speed override (length must equal the total CPU count).
struct TopologySpec {
  std::string name = "generic";
  int numa_nodes = 1;
  int sockets_per_node = 1;
  int cores_per_socket = 1;
  int cores_per_cache_group = 0;  ///< 0 means the whole socket shares cache.
  int smt_per_core = 1;           ///< 1 (no SMT) or 2.
  std::vector<double> clock_scales;
};

/// Description of a multicore machine: the hardware-resource sharing
/// relationships the schedulers and balancers consult. Mirrors what Linux
/// learns from /sys/devices/system/cpu (Section 5.2 of the paper). The
/// sharing structure is immutable after build; only per-core clock scales
/// may change at runtime (DVFS, see set_clock_scale).
class Topology {
 public:
  /// Validates and builds the topology; throws std::invalid_argument on a
  /// malformed spec.
  static Topology build(const TopologySpec& spec);

  const std::string& name() const { return name_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  int num_numa_nodes() const { return numa_nodes_; }
  int num_sockets() const { return sockets_; }
  int num_cache_groups() const { return cache_groups_; }
  bool has_smt() const { return smt_; }

  const CoreInfo& core(CoreId id) const { return cores_.at(static_cast<std::size_t>(id)); }
  const std::vector<CoreInfo>& cores() const { return cores_; }

  /// DVFS: change one core's relative clock speed mid-run. Callers that
  /// cache speeds (the Simulator) must refresh them afterwards. Throws
  /// std::invalid_argument unless scale > 0.
  void set_clock_scale(CoreId id, double scale);

  bool same_numa(CoreId a, CoreId b) const;
  bool same_socket(CoreId a, CoreId b) const;
  bool same_cache(CoreId a, CoreId b) const;

 private:
  std::string name_;
  std::vector<CoreInfo> cores_;
  int numa_nodes_ = 1;
  int sockets_ = 1;
  int cache_groups_ = 1;
  bool smt_ = false;
};

}  // namespace speedbal
