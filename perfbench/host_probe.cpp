#include "host_probe.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "step_trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kRingSlots = 1u << 20;   // 4 MiB of uint32.
constexpr int kChaseSteps = 1 << 19;
constexpr std::uint32_t kHeapEntries = 1u << 16;
constexpr std::uint32_t kTableSlots = 1u << 21;  // 8 MiB of uint32.
constexpr int kHeapOps = 150000;

}  // namespace

HostProbe::HostProbe() : ring_(kRingSlots), table_(kTableSlots, 0) {
  // One random cycle through every slot, so each load depends on the last.
  std::vector<std::uint32_t> order(kRingSlots);
  std::iota(order.begin(), order.end(), 0u);
  speedbal::Rng rng(12345);
  for (std::uint32_t i = kRingSlots - 1; i > 0; --i)
    std::swap(order[i], order[rng.uniform_int(0, i)]);
  for (std::uint32_t i = 0; i < kRingSlots; ++i)
    ring_[order[i]] = order[(i + 1) % kRingSlots];
  for (std::uint32_t i = 0; i < kHeapEntries; ++i)
    heap_.push_back({static_cast<std::uint64_t>(i) * 7919 % 100000, i});
}

double HostProbe::time_once() {
  const Clock::time_point t0 = Clock::now();
  std::uint32_t p = cursor_;
  for (int i = 0; i < kChaseSteps; ++i) p = ring_[p];
  cursor_ = p;

  const auto later = [](const Entry& a, const Entry& b) { return a.time > b.time; };
  std::make_heap(heap_.begin(), heap_.end(), later);
  for (int i = 0; i < kHeapOps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry& e = heap_.back();
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    std::uint32_t& slot =
        table_[(e.payload * 2654435761u + (x_ & 0xFFFF)) & (kTableSlots - 1)];
    ++slot;
    e.time += 1 + x_ % 5000 + (slot & 1);
    e.payload = static_cast<std::uint32_t>(x_ >> 40);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  return seconds_between(t0, Clock::now());
}

}  // namespace perfbench
