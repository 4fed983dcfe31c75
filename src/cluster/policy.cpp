#include "cluster/policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace speedbal::cluster {

int pick_pool(ClusterDispatch d, int jsq_d, std::span<const PoolLoad> pools,
              std::uint64_t& rr_cursor, Rng& rng) {
  if (pools.empty()) throw std::invalid_argument("pick_pool: no pools");
  const int n = static_cast<int>(pools.size());
  switch (d) {
    case ClusterDispatch::RoundRobin:
      return static_cast<int>(rr_cursor++ % static_cast<std::uint64_t>(n));
    case ClusterDispatch::LeastLoaded: {
      int best = 0;
      for (int p = 1; p < n; ++p)
        if (pools[static_cast<std::size_t>(p)].assigned <
            pools[static_cast<std::size_t>(best)].assigned)
          best = p;
      return best;
    }
    case ClusterDispatch::JsqD: {
      // Sample d distinct pools (partial Fisher-Yates over pool ids), then
      // take the least loaded of the sample, ties to the lowest id. The
      // draw count depends only on (d, n), never on loads, so the sampling
      // stream stays aligned across policy-equivalent runs. The id array
      // persists as the identity between calls: each pick undoes its k
      // swaps in reverse, so it costs O(d), not O(pools).
      const int k = std::clamp(jsq_d, 1, n);
      static thread_local std::vector<int> ids;
      static thread_local std::vector<int> swapped;
      while (static_cast<int>(ids.size()) < n)
        ids.push_back(static_cast<int>(ids.size()));
      swapped.resize(static_cast<std::size_t>(k));
      int best = -1;
      for (int i = 0; i < k; ++i) {
        const auto j = static_cast<int>(rng.uniform_int(i, n - 1));
        swapped[static_cast<std::size_t>(i)] = j;
        std::swap(ids[static_cast<std::size_t>(i)],
                  ids[static_cast<std::size_t>(j)]);
        const int cand = ids[static_cast<std::size_t>(i)];
        if (best < 0 ||
            pools[static_cast<std::size_t>(cand)].assigned <
                pools[static_cast<std::size_t>(best)].assigned ||
            (pools[static_cast<std::size_t>(cand)].assigned ==
                 pools[static_cast<std::size_t>(best)].assigned &&
             cand < best))
          best = cand;
      }
      for (int i = k - 1; i >= 0; --i)
        std::swap(ids[static_cast<std::size_t>(i)],
                  ids[static_cast<std::size_t>(
                      swapped[static_cast<std::size_t>(i)])]);
      return best;
    }
  }
  throw std::logic_error("pick_pool: bad dispatch");
}

}  // namespace speedbal::cluster
