#pragma once

#include <bit>
#include <cstddef>
#include <limits>
#include <vector>

namespace speedbal {

/// Incremental first minimum over a fixed set of keyed slots: a winner
/// (tournament) tree padded to a power of two P >= slots, with leaves at
/// [P, P + slots) in slot order, kPad (the largest Key: +inf where Key has
/// one) on the padding leaves, and node v holding the winner of 2v and
/// 2v+1 as a key and its slot in two flat arrays. Leaves are in order, so
/// every left subtree holds lower slots than its sibling, and "the right
/// child wins only on a strictly smaller key" makes each node the first
/// minimum of its range: a real slot beats the padding to its right even
/// at kPad. update() is O(log slots); winner() reads the root in O(1).
template <typename Key>
class WinnerTree {
 public:
  static constexpr Key kPad = std::numeric_limits<Key>::has_infinity
                                  ? std::numeric_limits<Key>::infinity()
                                  : std::numeric_limits<Key>::max();

  /// An empty tree: size() == 0, nothing to pick.
  WinnerTree() = default;

  /// `slots` slots keyed `fill`.
  WinnerTree(int slots, const Key& fill)
      : slots_(slots),
        leaves_(std::bit_ceil(static_cast<std::size_t>(slots > 1 ? slots : 1))),
        key_(2 * leaves_, kPad),
        winner_(2 * leaves_) {
    for (std::size_t v = 2 * leaves_; v-- > 1;) {
      if (v >= leaves_) {
        winner_[v] = static_cast<int>(v - leaves_);
        if (winner_[v] < slots_) key_[v] = fill;
      } else {
        const std::size_t w = child_winner(v);
        key_[v] = key_[w];
        winner_[v] = winner_[w];
      }
    }
  }

  int size() const { return slots_; }
  /// The lowest slot holding the smallest key. Requires size() >= 1.
  int winner() const { return winner_[1]; }

  void update(int slot, const Key& k) {
    std::size_t v = leaf(slot);
    if (key_[v] == k) return;
    key_[v] = k;
    for (v /= 2; v >= 1; v /= 2) {
      const std::size_t w = child_winner(v);
      // Same winner at the same key: no ancestor changes.
      if (winner_[w] == winner_[v] && key_[w] == key_[v]) return;
      key_[v] = key_[w];
      winner_[v] = winner_[w];
    }
  }

  /// Call f(slot) for every slot whose key is at most `bound`, in ascending
  /// slot order. A left-first walk that enters only the subtrees whose
  /// winning key is at most `bound`: O(k log(slots / k)) for k slots found.
  /// f must not update the tree.
  template <typename F>
  void for_each_at_most(const Key& bound, F&& f) const {
    if (slots_ == 0 || bound < key_[1]) return;
    std::size_t v = 1;
    for (;;) {
      // Descend into the leftmost qualifying child: a qualifying node
      // whose left child does not qualify has a qualifying right child.
      while (v < leaves_) v = 2 * v + (bound < key_[2 * v] ? 1 : 0);
      const auto slot = static_cast<int>(v - leaves_);
      if (slot >= slots_) return;  // Only padding lies further right.
      f(slot);
      // The next qualifying subtree to the right: climb out of right
      // children, step to the sibling; climbing out of the root ends it.
      do {
        v >>= std::countr_one(v);
        if (v == 0) return;
        ++v;
      } while (bound < key_[v]);
    }
  }

 private:
  std::size_t leaf(int slot) const {
    return leaves_ + static_cast<std::size_t>(slot);
  }
  std::size_t child_winner(std::size_t v) const {
    return 2 * v + (key_[2 * v + 1] < key_[2 * v] ? 1 : 0);
  }

  int slots_ = 0;
  std::size_t leaves_ = 1;   ///< P: the padded leaf count.
  std::vector<Key> key_;     ///< Node 0 unused.
  std::vector<int> winner_;  ///< The slot whose key node v holds.
};

}  // namespace speedbal
