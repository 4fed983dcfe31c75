#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "util/enum_names.hpp"
#include "util/rng.hpp"

namespace speedbal::cluster {

/// Cluster-level dispatch: which worker *pool* (not node — pools migrate
/// between nodes, and routing follows the pool) receives the next request.
enum class ClusterDispatch {
  RoundRobin,   ///< Cycle over pools in id order.
  LeastLoaded,  ///< Pool with the fewest assigned-but-unfinished requests.
  JsqD,         ///< JSQ(d): sample d pools, take the least loaded of those
                ///< (d = 2 is power-of-two-choices).
};

/// JSQ(d) is spelled "jsq"; d is a separate knob.
inline constexpr auto kClusterDispatchNames = enum_names<ClusterDispatch>(
    "cluster dispatch", "rr", "least-loaded", "jsq");
static_assert(kClusterDispatchNames.ends_at(ClusterDispatch::JsqD));

inline const char* to_string(ClusterDispatch d) {
  return kClusterDispatchNames[d];
}
inline ClusterDispatch parse_cluster_dispatch(std::string_view name) {
  return kClusterDispatchNames.parse(name);
}

/// Per-pool load as the frontend sees it: requests dispatched to the pool
/// (including those still in the network hop) and not yet completed or
/// dropped. A pool mid-migration is still routable — its queue drains to
/// the new incarnation — so there is no liveness bit here.
struct PoolLoad {
  std::int64_t assigned = 0;
};

/// Pure pool choice: no side effects beyond the round-robin cursor and the
/// JSQ(d) sampling draws from `rng`. Ties break to the lowest pool id so
/// runs are deterministic. `jsq_d` is clamped to the pool count — JSQ(d)
/// with d past the live pool count degrades to full JSQ, it never faults.
int pick_pool(ClusterDispatch d, int jsq_d, std::span<const PoolLoad> pools,
              std::uint64_t& rr_cursor, Rng& rng);

}  // namespace speedbal::cluster
