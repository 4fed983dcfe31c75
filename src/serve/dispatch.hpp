#pragma once

#include <cstddef>
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

/// Incremental first-minimum over per-shard load keys: a winner (tournament)
/// tree padded to a power of two P >= W, leaves at [P, P + W) in shard
/// order and +inf keys on the padding leaves, node i holding the winner of
/// 2i and 2i+1 as a key and its shard in two flat arrays. Leaves are in
/// order, so every left subtree holds lower shard ids than its sibling, and
/// "the right child wins only if its key is strictly smaller" makes each
/// node the first minimum of its range with one double compare per level.
/// update() is O(log W), pick() reads the root in O(1), and a pick always
/// equals a first-minimum scan of the keys (a real shard beats a padding
/// leaf even at +inf: it lies to its left). All keys start at 0.
class DispatchIndex {
 public:
  explicit DispatchIndex(int shards = 0);

  int size() const { return shards_; }
  void update(int shard, double key);
  /// The lowest-index shard with the smallest key. Requires size() >= 1.
  int pick() const { return winner_[1]; }

 private:
  int shards_ = 0;
  std::size_t leaves_ = 1;     ///< P: the padded leaf count.
  std::vector<double> key_;    ///< Node 0 unused.
  std::vector<int> winner_;    ///< The shard whose key node i holds.
};

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
