#include "serve/dispatch.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace speedbal::serve {

DispatchIndex::DispatchIndex(int shards)
    : shards_(shards),
      leaves_(std::bit_ceil(static_cast<std::size_t>(std::max(shards, 1)))),
      key_(2 * leaves_),
      winner_(2 * leaves_) {
  for (std::size_t v = 2 * leaves_; v-- > 1;) {
    if (v >= leaves_) {
      const auto shard = static_cast<int>(v - leaves_);
      key_[v] = shard < shards_ ? 0.0 : std::numeric_limits<double>::infinity();
      winner_[v] = shard;
    } else {
      const std::size_t w = key_[2 * v + 1] < key_[2 * v] ? 2 * v + 1 : 2 * v;
      key_[v] = key_[w];
      winner_[v] = winner_[w];
    }
  }
}

void DispatchIndex::update(int shard, double key) {
  std::size_t v = leaves_ + static_cast<std::size_t>(shard);
  if (key_[v] == key) return;
  key_[v] = key;
  for (v /= 2; v >= 1; v /= 2) {
    const std::size_t w = key_[2 * v + 1] < key_[2 * v] ? 2 * v + 1 : 2 * v;
    // Same winner: no ancestor changes.
    if (winner_[w] == winner_[v] && key_[w] == key_[v]) return;
    key_[v] = key_[w];
    winner_[v] = winner_[w];
  }
}

int pick_weighted(std::span<const double> weights, std::vector<double>& credit,
                  std::uint64_t& rr_cursor) {
  if (weights.empty()) throw std::invalid_argument("pick_weighted: no weights");
  if (credit.size() != weights.size()) credit.assign(weights.size(), 0.0);
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) return static_cast<int>(rr_cursor++ % weights.size());
  int best = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    credit[i] += weights[i] > 0.0 ? weights[i] : 0.0;
    if (credit[i] > credit[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
  }
  credit[static_cast<std::size_t>(best)] -= total;
  return best;
}

}  // namespace speedbal::serve
