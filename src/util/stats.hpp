#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace speedbal {

/// Streaming mean/variance accumulator (Welford's algorithm). Numerically
/// stable for long runs; used for per-thread speed accounting and for
/// multi-run experiment summaries.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One-shot summary of a sample set, with the paper's "% variation" measure:
/// the ratio of the maximum to the minimum observation, expressed as a
/// percentage above 100 (e.g. runtimes [10s, 12s] -> 20% variation).
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;

  /// max/min - 1, in percent; 0 when fewer than 2 samples or min == 0.
  double variation_pct() const;
};

/// Compute a Summary over the sample set (copies and sorts for the median).
Summary summarize(std::span<const double> xs);

/// p-th percentile (0..100) by linear interpolation; xs need not be sorted.
double percentile(std::span<const double> xs, double p);

/// Relative improvement of `candidate` over `baseline` in percent, where
/// both are runtimes (lower is better): 100*(baseline/candidate - 1).
double improvement_pct(double baseline_runtime, double candidate_runtime);

/// Fixed-footprint log-bucketed latency histogram: percentile queries over
/// millions of request latencies without storing samples. Values are
/// nanoseconds; each power of two is split into 32 linear sub-buckets, so a
/// recorded value lands in a bucket whose width is at most 1/32 (~3.1%) of
/// its magnitude — percentile error is bounded by that ratio. Values below
/// 32 ns are exact. The table is ~15 KB, allocated on the first record (or
/// non-empty merge), so a histogram that never records costs a few dozen
/// bytes. Merge is element-wise, so per-shard histograms can be kept
/// independently and combined at report time.
class LatencyHistogram {
 public:
  /// Record one latency. Negative values clamp to 0; values beyond ~2^62 ns
  /// (a century) clamp to the top bucket.
  void record(std::int64_t ns);

  /// Combine another histogram into this one (per-shard -> global).
  void merge(const LatencyHistogram& other);

  std::int64_t count() const { return count_; }
  std::int64_t min() const { return count_ ? min_ : 0; }  ///< Exact, ns.
  std::int64_t max() const { return count_ ? max_ : 0; }  ///< Exact, ns.
  double mean() const;                                    ///< Exact, ns.

  /// p-th percentile (0..100) in nanoseconds, interpolated within the
  /// containing bucket and clamped to [min, max]; 0 when empty.
  double percentile(double p) const;

 private:
  static constexpr int kSubBits = 5;                  // 32 sub-buckets.
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kRows = 63 - kSubBits;         // Exponent rows.
  static constexpr int kNumBuckets = kSub + kRows * kSub;

  static int bucket_index(std::int64_t ns);
  /// Inclusive lower bound and width of bucket `i`.
  static std::int64_t bucket_lo(int i);
  static std::int64_t bucket_width(int i);

  /// Empty until the first record or non-empty merge, then kNumBuckets.
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace speedbal
