#pragma once

#include <span>
#include <string>
#include <vector>

#include "topo/topology.hpp"
#include "util/enum_names.hpp"
#include "util/time.hpp"

namespace speedbal {

/// Scheduling-domain level, bottom (most-shared hardware) to top. Mirrors
/// the Linux 2.6 hierarchy the paper describes in Section 2: SMT context,
/// shared cache, socket/package, NUMA node.
enum class DomainLevel { Smt = 0, Cache = 1, Socket = 2, Numa = 3 };

inline constexpr auto kDomainLevelNames = enum_names<DomainLevel>(
    "domain level", "SMT", "CACHE", "SOCKET", "NUMA");
static_assert(kDomainLevelNames.ends_at(DomainLevel::Numa));

inline const char* to_string(DomainLevel level) {
  return kDomainLevelNames[level];
}

/// One scheduling domain: a set of CPUs partitioned into child groups. The
/// Linux load balancer balances *between groups* of a domain, progressing up
/// the hierarchy, each level with its own balancing interval and imbalance
/// tolerance (Section 2 of the paper gives the default values modeled here).
struct Domain {
  DomainLevel level = DomainLevel::Cache;
  std::vector<CoreId> cores;                 ///< All CPUs spanned.
  std::vector<std::vector<CoreId>> groups;   ///< Partition into child groups.
  SimTime busy_interval = 0;  ///< Balance period when the CPU is busy.
  SimTime idle_interval = 0;  ///< Balance period when the CPU is idle.
  int imbalance_pct = 125;    ///< Busiest group must exceed local by this %.
};

/// The per-machine domain hierarchy. For each CPU, `domains_for` returns the
/// chain of domains containing it, bottom-up (the order in which Linux
/// balances). Levels that would be degenerate (single group) are omitted.
class DomainTree {
 public:
  static DomainTree build(const Topology& topo);

  /// Domains containing `core`, ordered bottom (SMT) to top (NUMA/system).
  std::span<const std::size_t> domains_for(CoreId core) const;

  const Domain& domain(std::size_t idx) const { return domains_.at(idx); }

  /// Highest level at which two cores share a domain; used to pick
  /// per-migration-distance policies (e.g. blocking NUMA migrations).
  DomainLevel lowest_common_level(const Topology& topo, CoreId a, CoreId b) const;

 private:
  std::vector<Domain> domains_;
  std::vector<std::vector<std::size_t>> per_core_;  // indices into domains_.
};

}  // namespace speedbal
