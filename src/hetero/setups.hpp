#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "perturb/timeline.hpp"
#include "topo/topology.hpp"
#include "util/enum_names.hpp"
#include "util/time.hpp"

namespace speedbal::hetero {

/// The policy a HETERO-* setup runs. A deliberately small local enum — the
/// hetero layer sits below core, so it cannot name core's Policy; the
/// simrun front end lowers these onto an ExperimentConfig.
enum class HeteroPolicy {
  Share,       ///< SHARE: speed-weighted work partitioning.
  ShareCount,  ///< SHARE with uniform (count) shares — the baseline.
  Speed,       ///< The paper's user-level speed balancer (moves threads).
  Load,        ///< Linux-style queue-length balancing.
  Pinned,      ///< Round-robin pin, no balancing at all.
};

inline constexpr auto kHeteroPolicyNames = enum_names<HeteroPolicy>(
    "hetero policy", "SHARE", "SHARE-COUNT", "SPEED", "LOAD", "PINNED");
static_assert(kHeteroPolicyNames.ends_at(HeteroPolicy::Pinned));

inline const char* to_string(HeteroPolicy p) { return kHeteroPolicyNames[p]; }

/// A named asymmetric-machine experiment preset: a heterogeneous topology
/// (by presets::by_name) plus the policy to run on it, with a one-line
/// description (core count + clock ladder) for `simrun --list-setups`.
struct HeteroSetup {
  std::string name;         ///< "HETERO-SHARE" etc.
  std::string topo;         ///< Topology preset name ("biglittle4+4x3").
  HeteroPolicy policy = HeteroPolicy::Share;
  std::string description;  ///< One line: policy, cores, clock ladder.
};

/// The built-in HETERO-* presets, stable order.
const std::vector<HeteroSetup>& hetero_setups();

/// Lookup by name; nullptr when `name` is not a hetero setup.
const HeteroSetup* find_hetero_setup(std::string_view name);

/// Compact one-line clock-ladder summary of a topology, run-length encoded
/// over consecutive equal scales: "4x3+4x1" for a 4+4 big.LITTLE at ratio
/// 3, "1/0.89/0.79/..." style per-core list for a ladder.
std::string clock_ladder(const Topology& t);

}  // namespace speedbal::hetero
