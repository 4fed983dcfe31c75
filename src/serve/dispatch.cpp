#include "serve/dispatch.hpp"

#include <stdexcept>

namespace speedbal::serve {

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
