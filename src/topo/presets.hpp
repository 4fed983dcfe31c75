#pragma once

#include <string_view>

#include "topo/topology.hpp"

namespace speedbal {

/// Machine presets matching the paper's Table 1 test systems plus generic
/// shapes used by the unit tests and ablation benchmarks.
namespace presets {

/// Intel Xeon E7310 "Tigerton": UMA, 4 sockets x 4 cores, each pair of cores
/// shares an L2 cache (Table 1).
Topology tigerton();

/// AMD Opteron 8350 "Barcelona": NUMA, 4 sockets (= 4 NUMA nodes) x 4 cores,
/// cores within a socket share the L3 (Table 1).
Topology barcelona();

/// Intel Nehalem: 2 sockets x 4 cores x 2 SMT contexts, NUMA (Section 6).
Topology nehalem();

/// Flat UMA machine with `cores` identical cores sharing one cache.
Topology generic(int cores);

/// Asymmetric machine (Turbo-Boost-like, Section 4): `cores` total,
/// the first `fast_cores` run at `fast_scale` (> 1.0), the rest at 1.0.
Topology asymmetric(int cores, int fast_cores, double fast_scale);

/// big.LITTLE machine: `big` performance cores at clock scale `big_scale`
/// followed by `little` efficiency cores at 1.0, one socket, shared cache.
/// Named "biglittle<big>+<little>x<big_scale>" (e.g. "biglittle4+4x3"), so
/// the speed ratio is recoverable from the name alone.
Topology big_little(int big, int little, double big_scale);

/// Per-core frequency ladder: `cores` cores whose clock scales descend
/// linearly from 1.0 (core 0) to 0.25 (last core) — the maximally
/// heterogeneous shape for partitioning stress tests. Named "ladder<N>".
Topology ladder(int cores);

/// Look up a preset by name ("tigerton", "barcelona", "nehalem",
/// "generic<N>", "biglittle<B>+<L>x<R>", or "ladder<N>"); throws
/// std::invalid_argument if unknown.
Topology by_name(std::string_view name);

}  // namespace presets
}  // namespace speedbal
