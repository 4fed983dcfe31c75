// WinnerTree: first minimum and due-slot walk against naive scans.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/winner_tree.hpp"

namespace speedbal {
namespace {

/// The first (lowest-slot) minimum of a linear scan.
template <typename Key>
int first_min(const std::vector<Key>& keys) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(keys.size()); ++i)
    if (keys[static_cast<std::size_t>(i)] < keys[static_cast<std::size_t>(best)])
      best = i;
  return best;
}

/// Every slot whose key is at most `bound`, ascending.
template <typename Key>
std::vector<int> at_most(const std::vector<Key>& keys, const Key& bound) {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(keys.size()); ++i)
    if (!(bound < keys[static_cast<std::size_t>(i)])) out.push_back(i);
  return out;
}

template <typename Key>
std::vector<int> walk(const WinnerTree<Key>& tree, const Key& bound) {
  std::vector<int> out;
  tree.for_each_at_most(bound, [&](int slot) { out.push_back(slot); });
  return out;
}

/// Check every query of `tree` against the naive scans over `keys`.
template <typename Key>
void expect_matches(const WinnerTree<Key>& tree, const std::vector<Key>& keys,
                    const std::vector<Key>& bounds) {
  ASSERT_EQ(tree.size(), static_cast<int>(keys.size()));
  ASSERT_EQ(tree.winner(), first_min(keys));
  for (const Key& b : bounds) ASSERT_EQ(walk(tree, b), at_most(keys, b));
}

constexpr std::int64_t kPad = WinnerTree<std::int64_t>::kPad;
static_assert(kPad == std::numeric_limits<std::int64_t>::max());
static_assert(WinnerTree<double>::kPad ==
              std::numeric_limits<double>::infinity());

TEST(WinnerTree, MatchesNaiveScansUnderRandomUpdates) {
  // Small key ranges make ties everywhere; some updates go to the pad key
  // itself (the cluster's "nothing pending"), and bounds span below every
  // key up to the pad.
  for (const int n : {1, 2, 3, 5, 64, 1000}) {
    Rng rng(static_cast<std::uint64_t>(7 * n + 1));
    WinnerTree<std::int64_t> tree(n, 3);
    std::vector<std::int64_t> keys(static_cast<std::size_t>(n), 3);
    const std::vector<std::int64_t> bounds = {-1, 0, 2, 3, 5, 9, kPad - 1,
                                              kPad};
    expect_matches(tree, keys, bounds);
    for (int step = 0; step < 3000; ++step) {
      const int i = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
      const std::int64_t k =
          rng.uniform() < 0.1 ? kPad : rng.uniform_int(0, 9);
      keys[static_cast<std::size_t>(i)] = k;
      tree.update(i, k);
      expect_matches(tree, keys, bounds);
      if (HasFatalFailure()) {
        ADD_FAILURE() << "n=" << n << " step=" << step;
        return;
      }
    }
  }
}

TEST(WinnerTree, AllEqualKeysPickTheFirstSlotAndWalkEverySlot) {
  for (const int n : {1, 2, 3, 5, 64, 1000}) {
    WinnerTree<double> tree(n, 4.0);
    EXPECT_EQ(tree.winner(), 0);
    EXPECT_EQ(walk(tree, 4.0).size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(walk(tree, 3.5).empty());
    // Equal again after a detour: the lowest slot wins back.
    tree.update(0, 9.0);
    EXPECT_EQ(tree.winner(), n > 1 ? 1 : 0);
    tree.update(0, 4.0);
    EXPECT_EQ(tree.winner(), 0);
  }
}

TEST(WinnerTree, KeysEqualToPadStillBeatThePadding) {
  // Five slots pad to eight leaves. Every real slot at the pad key ties the
  // padding and wins, lying to its left; a walk up to the pad reports the
  // real slots and never a padding leaf.
  WinnerTree<std::int64_t> tree(5, kPad);
  EXPECT_EQ(tree.winner(), 0);
  EXPECT_EQ(walk(tree, kPad), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(walk(tree, kPad - 1).empty());
  tree.update(4, 10);
  EXPECT_EQ(tree.winner(), 4);
  EXPECT_EQ(walk(tree, std::int64_t{10}), (std::vector<int>{4}));
  tree.update(4, kPad);
  EXPECT_EQ(tree.winner(), 0);
  EXPECT_TRUE(walk(tree, kPad - 1).empty());
}

TEST(WinnerTree, EmptyTreeHasNothingToWalk) {
  const WinnerTree<double> tree;
  EXPECT_EQ(tree.size(), 0);
  EXPECT_TRUE(walk(tree, std::numeric_limits<double>::infinity()).empty());
}

}  // namespace
}  // namespace speedbal
