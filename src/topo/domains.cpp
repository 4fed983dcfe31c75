#include "topo/domains.hpp"

#include <algorithm>
#include <map>

namespace speedbal {

namespace {

// Default balancing parameters per level, following the paper's Section 2
// description of the Linux 2.6.28 defaults: idle cores balance every 1-2
// ticks (10ms) on UMA and 64ms across NUMA; busy cores every 64-128ms for
// SMT, 64-256ms for shared packages, 256-1024ms for NUMA. Imbalance
// percentage is 125% at most levels, 110% for SMT.
void apply_defaults(Domain& d) {
  switch (d.level) {
    case DomainLevel::Smt:
      d.busy_interval = msec(64);
      d.idle_interval = msec(10);
      d.imbalance_pct = 110;
      break;
    case DomainLevel::Cache:
      d.busy_interval = msec(128);
      d.idle_interval = msec(10);
      d.imbalance_pct = 125;
      break;
    case DomainLevel::Socket:
      d.busy_interval = msec(256);
      d.idle_interval = msec(10);
      d.imbalance_pct = 125;
      break;
    case DomainLevel::Numa:
      d.busy_interval = msec(512);
      d.idle_interval = msec(64);
      d.imbalance_pct = 125;
      break;
  }
}

// Build the domain at `level` by partitioning cores with `group_key`; skip
// degenerate domains (one group, or groups of one core at the bottom level).
template <typename KeyFn, typename GroupFn>
void add_level(std::vector<Domain>& out, const Topology& topo,
               DomainLevel level, KeyFn parent_key, GroupFn group_key) {
  // Partition all cores by parent_key; within each partition, split into
  // groups by group_key. One Domain per partition.
  std::map<int, std::map<int, std::vector<CoreId>>> parts;
  for (const auto& c : topo.cores())
    parts[parent_key(c)][group_key(c)].push_back(c.id);
  for (auto& [pkey, groups] : parts) {
    (void)pkey;
    if (groups.size() < 2) continue;  // Degenerate: nothing to balance.
    Domain d;
    d.level = level;
    for (auto& [gkey, members] : groups) {
      (void)gkey;
      for (CoreId id : members) d.cores.push_back(id);
      d.groups.push_back(std::move(members));
    }
    std::sort(d.cores.begin(), d.cores.end());
    apply_defaults(d);
    out.push_back(std::move(d));
  }
}

}  // namespace

DomainTree DomainTree::build(const Topology& topo) {
  DomainTree tree;
  auto& out = tree.domains_;

  if (topo.has_smt()) {
    // SMT domain: one per physical core, groups are the hardware contexts.
    // Physical core identified by min(id, sibling).
    add_level(out, topo, DomainLevel::Smt,
              [](const CoreInfo& c) {
                return c.smt_sibling >= 0 ? std::min(c.id, c.smt_sibling) : c.id;
              },
              [](const CoreInfo& c) { return c.id; });
  }
  // Cache domain: one per cache group, child groups are physical cores (or
  // single CPUs without SMT).
  add_level(out, topo, DomainLevel::Cache,
            [](const CoreInfo& c) { return c.cache_group; },
            [](const CoreInfo& c) {
              return c.smt_sibling >= 0 ? std::min(c.id, c.smt_sibling) : c.id;
            });
  // Socket domain: one per socket, child groups are cache groups.
  add_level(out, topo, DomainLevel::Socket,
            [](const CoreInfo& c) { return c.socket; },
            [](const CoreInfo& c) { return c.cache_group; });
  // Top domain spans the machine with sockets as groups. On a UMA machine
  // this is the "system" domain; on NUMA it balances across nodes. When
  // there are multiple NUMA nodes we group by node, otherwise by socket.
  if (topo.num_numa_nodes() > 1) {
    add_level(out, topo, DomainLevel::Numa,
              [](const CoreInfo&) { return 0; },
              [](const CoreInfo& c) { return c.numa_node; });
  } else if (topo.num_sockets() > 1) {
    Domain d;
    d.level = DomainLevel::Socket;
    std::map<int, std::vector<CoreId>> by_socket;
    for (const auto& c : topo.cores()) by_socket[c.socket].push_back(c.id);
    for (auto& [s, members] : by_socket) {
      (void)s;
      for (CoreId id : members) d.cores.push_back(id);
      d.groups.push_back(std::move(members));
    }
    std::sort(d.cores.begin(), d.cores.end());
    apply_defaults(d);
    out.push_back(std::move(d));
  }

  // Order domains bottom-up per core.
  tree.per_core_.resize(static_cast<std::size_t>(topo.num_cores()));
  for (CoreId c = 0; c < topo.num_cores(); ++c) {
    auto& chain = tree.per_core_[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto& cores = out[i].cores;
      if (std::binary_search(cores.begin(), cores.end(), c)) chain.push_back(i);
    }
    std::sort(chain.begin(), chain.end(), [&](std::size_t a, std::size_t b) {
      if (out[a].level != out[b].level) return out[a].level < out[b].level;
      return out[a].cores.size() < out[b].cores.size();
    });
  }
  return tree;
}

std::span<const std::size_t> DomainTree::domains_for(CoreId core) const {
  return per_core_.at(static_cast<std::size_t>(core));
}

DomainLevel DomainTree::lowest_common_level(const Topology& topo, CoreId a,
                                            CoreId b) const {
  if (topo.has_smt() && topo.core(a).smt_sibling == b) return DomainLevel::Smt;
  if (topo.same_cache(a, b)) return DomainLevel::Cache;
  if (topo.same_socket(a, b) || topo.same_numa(a, b)) return DomainLevel::Socket;
  return DomainLevel::Numa;
}

}  // namespace speedbal
