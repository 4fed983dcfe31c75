#include "topo/presets.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace speedbal::presets {

Topology tigerton() {
  TopologySpec spec;
  spec.name = "tigerton";
  spec.numa_nodes = 1;
  spec.sockets_per_node = 4;
  spec.cores_per_socket = 4;
  spec.cores_per_cache_group = 2;  // L2 shared per pair of cores.
  return Topology::build(spec);
}

Topology barcelona() {
  TopologySpec spec;
  spec.name = "barcelona";
  spec.numa_nodes = 4;
  spec.sockets_per_node = 1;
  spec.cores_per_socket = 4;
  spec.cores_per_cache_group = 4;  // L3 shared per socket.
  return Topology::build(spec);
}

Topology nehalem() {
  TopologySpec spec;
  spec.name = "nehalem";
  spec.numa_nodes = 2;
  spec.sockets_per_node = 1;
  spec.cores_per_socket = 4;
  spec.cores_per_cache_group = 4;
  spec.smt_per_core = 2;
  return Topology::build(spec);
}

Topology generic(int cores) {
  TopologySpec spec;
  spec.name = "generic" + std::to_string(cores);
  spec.cores_per_socket = cores;
  return Topology::build(spec);
}

Topology asymmetric(int cores, int fast_cores, double fast_scale) {
  if (fast_cores > cores)
    throw std::invalid_argument("asymmetric: fast_cores > cores");
  TopologySpec spec;
  spec.name = "asymmetric" + std::to_string(cores);
  spec.cores_per_socket = cores;
  spec.clock_scales.assign(static_cast<std::size_t>(cores), 1.0);
  for (int i = 0; i < fast_cores; ++i)
    spec.clock_scales[static_cast<std::size_t>(i)] = fast_scale;
  return Topology::build(spec);
}

Topology big_little(int big, int little, double big_scale) {
  if (big < 1 || little < 1)
    throw std::invalid_argument("big_little: need >= 1 core of each kind");
  if (big_scale <= 0.0)
    throw std::invalid_argument("big_little: big_scale must be > 0");
  TopologySpec spec;
  // %g keeps the scale's spelling minimal ("3", "2.5") so the name survives
  // a by_name round trip (scenario JSON stores topologies by name).
  char scale_buf[32];
  std::snprintf(scale_buf, sizeof(scale_buf), "%g", big_scale);
  spec.name = "biglittle" + std::to_string(big) + "+" + std::to_string(little) +
              "x" + scale_buf;
  spec.cores_per_socket = big + little;
  spec.clock_scales.assign(static_cast<std::size_t>(big + little), 1.0);
  for (int i = 0; i < big; ++i)
    spec.clock_scales[static_cast<std::size_t>(i)] = big_scale;
  return Topology::build(spec);
}

Topology ladder(int cores) {
  if (cores < 2) throw std::invalid_argument("ladder: need >= 2 cores");
  TopologySpec spec;
  spec.name = "ladder" + std::to_string(cores);
  spec.cores_per_socket = cores;
  spec.clock_scales.resize(static_cast<std::size_t>(cores));
  for (int i = 0; i < cores; ++i)
    spec.clock_scales[static_cast<std::size_t>(i)] =
        1.0 - 0.75 * static_cast<double>(i) / static_cast<double>(cores - 1);
  return Topology::build(spec);
}

Topology by_name(std::string_view name) {
  if (name == "tigerton") return tigerton();
  if (name == "barcelona") return barcelona();
  if (name == "nehalem") return nehalem();
  constexpr std::string_view kGeneric = "generic";
  if (name.rfind(kGeneric, 0) == 0) {
    int n = 0;
    const auto* begin = name.data() + kGeneric.size();
    const auto* end = name.data() + name.size();
    if (std::from_chars(begin, end, n).ec == std::errc{} && n >= 1)
      return generic(n);
  }
  constexpr std::string_view kLadder = "ladder";
  if (name.rfind(kLadder, 0) == 0) {
    int n = 0;
    const auto* begin = name.data() + kLadder.size();
    const auto* end = name.data() + name.size();
    if (std::from_chars(begin, end, n).ec == std::errc{} && n >= 2)
      return ladder(n);
  }
  constexpr std::string_view kBigLittle = "biglittle";
  if (name.rfind(kBigLittle, 0) == 0) {
    // "biglittle<big>+<little>x<scale>".
    int big = 0, little = 0;
    double scale = 0.0;
    const auto* end = name.data() + name.size();
    auto r = std::from_chars(name.data() + kBigLittle.size(), end, big);
    if (r.ec == std::errc{} && r.ptr < end && *r.ptr == '+') {
      r = std::from_chars(r.ptr + 1, end, little);
      if (r.ec == std::errc{} && r.ptr < end && *r.ptr == 'x') {
        r = std::from_chars(r.ptr + 1, end, scale);
        if (r.ec == std::errc{} && r.ptr == end && big >= 1 && little >= 1 &&
            scale > 0.0)
          return big_little(big, little, scale);
      }
    }
  }
  throw std::invalid_argument("unknown topology preset: " + std::string(name));
}

}  // namespace speedbal::presets
