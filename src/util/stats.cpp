#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace speedbal {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double Summary::variation_pct() const {
  if (count < 2 || min <= 0.0) return 0.0;
  return (max / min - 1.0) * 100.0;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  OnlineStats acc;
  for (double x : xs) acc.add(x);
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  s.median = percentile(xs, 50.0);
  return s;
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double improvement_pct(double baseline_runtime, double candidate_runtime) {
  if (candidate_runtime <= 0.0) return 0.0;
  return (baseline_runtime / candidate_runtime - 1.0) * 100.0;
}

int LatencyHistogram::bucket_index(std::int64_t ns) {
  if (ns < kSub) return static_cast<int>(std::max<std::int64_t>(ns, 0));
  // Mantissa/exponent split: shift so the top kSubBits+1 bits remain, giving
  // a value in [kSub, 2*kSub) whose offset selects the linear sub-bucket.
  const int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(ns));
  const int row = msb - kSubBits;  // <= kRows - 1: an int64's msb is <= 62.
  const int sub = static_cast<int>((ns >> row) - kSub);
  return kSub + row * kSub + sub;
}

std::int64_t LatencyHistogram::bucket_lo(int i) {
  if (i < kSub) return i;
  const int row = (i - kSub) / kSub;
  const int sub = (i - kSub) % kSub;
  return static_cast<std::int64_t>(kSub + sub) << row;
}

std::int64_t LatencyHistogram::bucket_width(int i) {
  if (i < kSub) return 1;
  return std::int64_t{1} << ((i - kSub) / kSub);
}

void LatencyHistogram::record(std::int64_t ns) {
  ns = std::max<std::int64_t>(ns, 0);
  if (count_ == 0) {
    min_ = max_ = ns;
  } else {
    min_ = std::min(min_, ns);
    max_ = std::max(max_, ns);
  }
  ++count_;
  sum_ += static_cast<double>(ns);
  if (buckets_.empty()) buckets_.resize(static_cast<std::size_t>(kNumBuckets));
  ++buckets_[static_cast<std::size_t>(bucket_index(ns))];
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (buckets_.empty()) {
    buckets_ = other.buckets_;
    return;
  }
  for (int i = 0; i < kNumBuckets; ++i)
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
}

double LatencyHistogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank on the same convention as percentile(span): 0 -> min, 100 -> max.
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  std::int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::int64_t n = buckets_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    if (rank < static_cast<double>(seen + n)) {
      const std::int64_t width = bucket_width(i);
      // A unit-width bucket holds exactly one integer value.
      if (width == 1) return static_cast<double>(bucket_lo(i));
      // Interpolate position within the bucket's value range.
      const double frac =
          n > 1 ? (rank - static_cast<double>(seen)) / static_cast<double>(n)
                : 0.5;
      const double v = static_cast<double>(bucket_lo(i)) +
                       frac * static_cast<double>(width);
      return std::clamp(v, static_cast<double>(min_), static_cast<double>(max_));
    }
    seen += n;
  }
  return static_cast<double>(max_);
}

}  // namespace speedbal
