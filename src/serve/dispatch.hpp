#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/enum_names.hpp"

namespace speedbal::serve {

/// How the dispatch layer assigns an admitted request to a worker shard.
/// Round-robin is oblivious; least-loaded compares pending service demand
/// (what a backlog-aware proxy estimates); join-shortest-queue compares
/// request counts (the classic JSQ policy from the queueing literature);
/// weighted is smooth weighted round-robin over externally supplied
/// weights (the SHARE policy feeds it per-worker capacity shares; without
/// weights it degrades to plain round-robin).
enum class DispatchPolicy {
  RoundRobin,
  LeastLoaded,
  JoinShortestQueue,
  Weighted,
};

inline constexpr auto kDispatchPolicyNames = enum_names<DispatchPolicy>(
    "dispatch policy", "rr", "least-loaded", "jsq", "weighted");
static_assert(kDispatchPolicyNames.ends_at(DispatchPolicy::Weighted));

inline const char* to_string(DispatchPolicy p) {
  return kDispatchPolicyNames[p];
}
inline DispatchPolicy parse_dispatch_policy(std::string_view name) {
  return kDispatchPolicyNames.parse(name);
}

/// Smooth weighted round-robin (the nginx algorithm): each pick adds every
/// shard's weight to its running credit, takes the highest-credit shard
/// (lowest index on ties), and debits it by the total weight. Produces the
/// evenly interleaved sequence a-b-a-c-a-b for weights 3/2/1 rather than
/// a-a-a-b-b-c, is deterministic, and needs no RNG. `credit` is the
/// persistent per-shard state; it is resized (and zeroed) to match
/// `weights` on size change. A non-positive total weight degrades to plain
/// round-robin. Throws std::invalid_argument on empty `weights`.
int pick_weighted(std::span<const double> weights, std::vector<double>& credit,
                  std::uint64_t& rr_cursor);

}  // namespace speedbal::serve
