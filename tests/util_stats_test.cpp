#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace speedbal {
namespace {

TEST(OnlineStats, Empty) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    a.add(x);
    all.add(x);
  }
  for (int i = 50; i < 120; ++i) {
    const double x = i * 0.37;
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Summary, VariationPctIsMaxOverMin) {
  // The paper's "% variation": run times [10, 12] vary by 20%.
  const std::vector<double> xs{10.0, 11.0, 12.0};
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.variation_pct(), 20.0, 1e-9);
}

TEST(Summary, VariationPctDegenerateCases) {
  EXPECT_EQ(summarize(std::vector<double>{}).variation_pct(), 0.0);
  EXPECT_EQ(summarize(std::vector<double>{5.0}).variation_pct(), 0.0);
  EXPECT_EQ(summarize(std::vector<double>{0.0, 1.0}).variation_pct(), 0.0);
}

TEST(Summary, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(summarize(std::vector<double>{3.0, 1.0, 2.0}).median, 2.0);
  EXPECT_DOUBLE_EQ(summarize(std::vector<double>{4.0, 1.0, 2.0, 3.0}).median, 2.5);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 12.5), 15.0);
}

TEST(Percentile, UnsortedInput) {
  const std::vector<double> xs{50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
}

TEST(LatencyHistogram, Empty) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
}

TEST(LatencyHistogram, SingleValueExactEverywhere) {
  LatencyHistogram h;
  h.record(12345);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 12345);
  EXPECT_EQ(h.max(), 12345);
  EXPECT_DOUBLE_EQ(h.mean(), 12345.0);
  for (double p : {0.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(h.percentile(p), 12345.0);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Small values land in unit-width buckets, so they are recorded exactly.
  LatencyHistogram h;
  for (int v : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) h.record(v);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 9.0);
  EXPECT_NEAR(h.percentile(50.0), 4.5, 0.5);
}

TEST(LatencyHistogram, BoundedRelativeError) {
  // Log-bucketing with 2^5 sub-buckets per power of two bounds the quantile
  // at 1/32 (~3.1%) relative error against the order statistics bracketing
  // the rank (in-bucket interpolation cannot recover the gaps *between*
  // sparse samples, so the exact interpolated quantile is not the bound).
  LatencyHistogram h;
  std::vector<std::int64_t> values;
  std::int64_t v = 3;
  while (v < (std::int64_t{1} << 40)) {
    values.push_back(v);
    h.record(v);
    v = v * 7 + 13;
  }
  std::sort(values.begin(), values.end());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo =
        static_cast<double>(values[static_cast<std::size_t>(rank)]);
    const auto hi = static_cast<double>(
        values[static_cast<std::size_t>(std::ceil(rank))]);
    const double q = h.percentile(p);
    EXPECT_GE(q, lo * (1.0 - 1.0 / 32.0) - 1.0) << "at p" << p;
    EXPECT_LE(q, hi * (1.0 + 1.0 / 32.0) + 1.0) << "at p" << p;
  }
}

TEST(LatencyHistogram, PercentileIsMonotone) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 977);
  double prev = -1.0;
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev) << "at p" << p;
    prev = q;
  }
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0 * 977.0);
}

TEST(LatencyHistogram, MergeEqualsSequential) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram all;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t x = i * i * 31 + 7;
    ((i % 2 == 0) ? a : b).record(x);
    all.record(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (double p : {1.0, 50.0, 95.0, 99.9})
    EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p));
}

TEST(LatencyHistogram, EmptyPercentileIsZeroEverywhere) {
  const LatencyHistogram h;
  for (double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(h.percentile(p), 0.0) << "at p" << p;
}

TEST(LatencyHistogram, MergingEmptyIntoEmptyStaysEmpty) {
  LatencyHistogram a;
  const LatencyHistogram b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 0);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.percentile(50.0), 0.0);
  // Still usable afterwards.
  a.record(40);
  EXPECT_EQ(a.count(), 1);
  EXPECT_DOUBLE_EQ(a.percentile(50.0), 40.0);
}

TEST(LatencyHistogram, MergeIntoEmptyReproducesTheSource) {
  LatencyHistogram src;
  for (int i = 0; i < 500; ++i) src.record(i * i * 13 + 3);
  LatencyHistogram dst;
  dst.merge(src);
  EXPECT_EQ(dst.count(), src.count());
  EXPECT_EQ(dst.min(), src.min());
  EXPECT_EQ(dst.max(), src.max());
  EXPECT_EQ(dst.mean(), src.mean());
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(dst.percentile(p), src.percentile(p)) << "at p" << p;
  // The merged copy owns its buckets: recording into it leaves src alone.
  dst.record(1);
  EXPECT_EQ(src.count(), 500);
  EXPECT_EQ(src.min(), 3);
}

TEST(LatencyHistogram, CopyOfEmptyRecordsNormally) {
  const LatencyHistogram empty;
  LatencyHistogram copy = empty;
  for (int v : {5, 100, 7000}) copy.record(v);
  LatencyHistogram direct;
  for (int v : {5, 100, 7000}) direct.record(v);
  EXPECT_EQ(empty.count(), 0);
  EXPECT_EQ(copy.count(), 3);
  EXPECT_EQ(copy.min(), 5);
  EXPECT_EQ(copy.max(), 7000);
  for (double p : {0.0, 50.0, 100.0})
    EXPECT_EQ(copy.percentile(p), direct.percentile(p)) << "at p" << p;
}

TEST(LatencyHistogram, NegativeClampsToZero) {
  LatencyHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(LatencyHistogram, HugeValuesDoNotOverflow) {
  LatencyHistogram h;
  const std::int64_t big = std::int64_t{1} << 61;
  h.record(big);
  h.record(big + (std::int64_t{1} << 40));
  EXPECT_EQ(h.count(), 2);
  EXPECT_GE(h.percentile(100.0), static_cast<double>(big));
}

TEST(LatencyHistogram, ValuesBeyondTopBucketClampButKeepExactExtremes) {
  // Values past the last log bucket (~2^62 ns, a century) land in the top
  // bucket, but min/max are tracked exactly and bound every percentile.
  LatencyHistogram h;
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  h.record(huge);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.max(), huge);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), static_cast<double>(huge));
  EXPECT_DOUBLE_EQ(h.percentile(100.0), static_cast<double>(huge));

  h.record(1);
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_GE(h.percentile(p), 1.0) << "at p" << p;
    EXPECT_LE(h.percentile(p), static_cast<double>(huge)) << "at p" << p;
  }
}

TEST(LatencyHistogram, PercentileArgumentOutsideRangeClamps) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_DOUBLE_EQ(h.percentile(-10.0), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(250.0), h.percentile(100.0));
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentityInBothDirections) {
  LatencyHistogram full;
  for (int i = 0; i < 50; ++i) full.record(1000 + i * 37);

  // Merging an empty histogram must not disturb min/max/percentiles (an
  // empty histogram reports min() == 0, which must not leak into the
  // target's tracked minimum).
  LatencyHistogram a = full;
  a.merge(LatencyHistogram{});
  EXPECT_EQ(a.count(), full.count());
  EXPECT_EQ(a.min(), full.min());
  EXPECT_EQ(a.max(), full.max());
  for (double p : {0.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(a.percentile(p), full.percentile(p));

  // Merging into an empty histogram adopts the source exactly.
  LatencyHistogram b;
  b.merge(full);
  EXPECT_EQ(b.count(), full.count());
  EXPECT_EQ(b.min(), full.min());
  EXPECT_EQ(b.max(), full.max());
  EXPECT_DOUBLE_EQ(b.mean(), full.mean());
  for (double p : {0.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(b.percentile(p), full.percentile(p));

  // Two empties merged stay empty.
  LatencyHistogram c;
  c.merge(LatencyHistogram{});
  EXPECT_EQ(c.count(), 0);
  EXPECT_EQ(c.percentile(50.0), 0.0);
}

TEST(LatencyHistogram, MergeOfSingleSampleShardsMatchesSequential) {
  // Degenerate sharding: one histogram per sample (every shard exercises
  // the count_ == 0 initialization path on the merge target).
  LatencyHistogram merged;
  LatencyHistogram whole;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t v = (std::int64_t{1} << (i % 40)) + i;
    whole.record(v);
    LatencyHistogram shard;
    shard.record(v);
    merged.merge(shard);
  }
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
  for (double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(merged.percentile(p), whole.percentile(p));
}

TEST(ImprovementPct, RuntimeSemantics) {
  // Baseline 12s, candidate 10s: candidate is 20% faster.
  EXPECT_NEAR(improvement_pct(12.0, 10.0), 20.0, 1e-9);
  // Slower candidate yields a negative improvement.
  EXPECT_LT(improvement_pct(10.0, 12.0), 0.0);
  EXPECT_EQ(improvement_pct(10.0, 0.0), 0.0);
}

}  // namespace
}  // namespace speedbal
