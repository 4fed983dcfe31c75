#include "serve/dispatch.hpp"

#include <algorithm>
#include <stdexcept>

namespace speedbal::serve {

DispatchIndex::DispatchIndex(int shards)
    : node_(2 * static_cast<std::size_t>(shards)) {
  const std::size_t n = node_.size() / 2;
  for (std::size_t v = 2 * n; v-- > 1;)
    node_[v] = v >= n ? std::pair{0.0, static_cast<int>(v - n)}
                      : std::min(node_[2 * v], node_[2 * v + 1]);
}

void DispatchIndex::update(int shard, double key) {
  std::size_t v = node_.size() / 2 + static_cast<std::size_t>(shard);
  if (node_[v].first == key) return;
  node_[v].first = key;
  for (v /= 2; v >= 1; v /= 2) {
    const auto win = std::min(node_[2 * v], node_[2 * v + 1]);
    if (win == node_[v]) return;  // Same winner: no ancestor changes.
    node_[v] = win;
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
