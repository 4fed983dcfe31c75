#include "topo/topology.hpp"

#include <stdexcept>

namespace speedbal {

Topology Topology::build(const TopologySpec& spec) {
  if (spec.numa_nodes < 1 || spec.sockets_per_node < 1 ||
      spec.cores_per_socket < 1)
    throw std::invalid_argument("topology: counts must be >= 1");
  if (spec.smt_per_core != 1 && spec.smt_per_core != 2)
    throw std::invalid_argument("topology: smt_per_core must be 1 or 2");
  const int group_size =
      spec.cores_per_cache_group > 0 ? spec.cores_per_cache_group
                                     : spec.cores_per_socket;
  if (spec.cores_per_socket % group_size != 0)
    throw std::invalid_argument(
        "topology: cache group size must divide cores_per_socket");

  Topology t;
  t.name_ = spec.name;
  t.numa_nodes_ = spec.numa_nodes;
  t.sockets_ = spec.numa_nodes * spec.sockets_per_node;
  t.smt_ = spec.smt_per_core == 2;

  const int total = spec.numa_nodes * spec.sockets_per_node *
                    spec.cores_per_socket * spec.smt_per_core;
  if (!spec.clock_scales.empty() &&
      static_cast<int>(spec.clock_scales.size()) != total)
    throw std::invalid_argument(
        "topology: clock_scales length must equal total logical CPU count");

  int cache_group = 0;
  CoreId id = 0;
  for (int node = 0; node < spec.numa_nodes; ++node) {
    for (int s = 0; s < spec.sockets_per_node; ++s) {
      const int socket = node * spec.sockets_per_node + s;
      for (int c = 0; c < spec.cores_per_socket; ++c) {
        const int group = cache_group + c / group_size;
        for (int h = 0; h < spec.smt_per_core; ++h) {
          CoreInfo info;
          info.id = id;
          info.numa_node = node;
          info.socket = socket;
          info.cache_group = group;
          info.clock_scale = spec.clock_scales.empty()
                                 ? 1.0
                                 : spec.clock_scales[static_cast<std::size_t>(id)];
          if (spec.smt_per_core == 2) info.smt_sibling = (h == 0) ? id + 1 : id - 1;
          t.cores_.push_back(info);
          ++id;
        }
      }
      cache_group += spec.cores_per_socket / group_size;
    }
  }
  t.cache_groups_ = cache_group;
  return t;
}

bool Topology::same_numa(CoreId a, CoreId b) const {
  return core(a).numa_node == core(b).numa_node;
}
bool Topology::same_socket(CoreId a, CoreId b) const {
  return core(a).socket == core(b).socket;
}
bool Topology::same_cache(CoreId a, CoreId b) const {
  return core(a).cache_group == core(b).cache_group;
}

void Topology::set_clock_scale(CoreId id, double scale) {
  if (!(scale > 0.0))
    throw std::invalid_argument("set_clock_scale: scale must be > 0");
  cores_.at(static_cast<std::size_t>(id)).clock_scale = scale;
}

}  // namespace speedbal
