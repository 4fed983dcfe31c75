// Request spans and latency attribution: the RequestSpan partition
// arithmetic, the deterministic 1/2^k sampler, the capped span table,
// AttributionTable/top-k/blame/storm analytics, and the overhead meter.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/overhead_meter.hpp"
#include "obs/span.hpp"

namespace speedbal {
namespace {

using obs::RequestSpan;
using obs::SpanSampler;
using obs::SpanTable;

RequestSpan make_span(std::int64_t id, int cls, std::int64_t arrival,
                      std::int64_t started, std::int64_t completed,
                      std::int64_t exec, double stall = 0.0,
                      int migrations = 0) {
  RequestSpan s;
  s.id = id;
  s.cls = cls;
  s.worker = static_cast<int>(id % 4);
  s.arrival_us = arrival;
  s.started_us = started;
  s.completed_us = completed;
  s.exec_us = exec;
  s.stall_us = stall;
  s.migrations = migrations;
  return s;
}

TEST(RequestSpan, ComponentsPartitionSojournByConstruction) {
  const RequestSpan s = make_span(7, 1, 100, 250, 1000, 500, 40.0, 2);
  EXPECT_EQ(s.queue_us(), 150);
  EXPECT_EQ(s.preempt_us(), 250);
  EXPECT_EQ(s.sojourn_us(), 900);
  EXPECT_EQ(s.queue_us() + s.exec_us + s.preempt_us(), s.sojourn_us());
}

TEST(SpanSampler, Log2PeriodSelectsEveryPowerOfTwoAlignedId) {
  const SpanSampler every(0);
  for (std::int64_t id = 0; id < 10; ++id) EXPECT_TRUE(every.sampled(id));

  const SpanSampler sixty_fourth(6);
  std::int64_t hits = 0;
  for (std::int64_t id = 0; id < 640; ++id)
    hits += sixty_fourth.sampled(id) ? 1 : 0;
  EXPECT_EQ(hits, 10);  // Exactly ids 0, 64, 128, ...
  EXPECT_TRUE(sixty_fourth.sampled(128));
  EXPECT_FALSE(sixty_fourth.sampled(129));
}

TEST(SpanSampler, NegativePeriodDisablesSampling) {
  const SpanSampler off(-1);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.sampled(0));
  EXPECT_FALSE(off.sampled(64));
}

TEST(SpanTable, CapDropsOverflowAndCountsIt) {
  SpanTable table;
  table.set_cap(3);
  for (std::int64_t id = 0; id < 5; ++id)
    table.add(make_span(id, 0, 0, 1, 2, 1));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.dropped(), 2);
  const auto spans = table.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, 0);
  EXPECT_EQ(spans[2].id, 2);
}

TEST(Attribution, BuildSumsPerClassAndSortsRows) {
  std::vector<RequestSpan> spans;
  spans.push_back(make_span(1, 2, 0, 10, 110, 80, 5.0, 1));
  spans.push_back(make_span(2, 0, 0, 0, 50, 50));
  spans.push_back(make_span(3, 2, 100, 150, 400, 200, 0.0, 2));
  const auto table = obs::AttributionTable::build(spans);

  ASSERT_EQ(table.classes.size(), 2u);
  EXPECT_EQ(table.classes[0].cls, 0);
  EXPECT_EQ(table.classes[0].requests, 1);
  EXPECT_EQ(table.classes[0].queue_us, 0);
  EXPECT_EQ(table.classes[0].exec_us, 50);

  const auto& c2 = table.classes[1];
  EXPECT_EQ(c2.cls, 2);
  EXPECT_EQ(c2.requests, 2);
  EXPECT_EQ(c2.queue_us, 10 + 50);
  EXPECT_EQ(c2.exec_us, 80 + 200);
  EXPECT_EQ(c2.preempt_us, 20 + 50);
  EXPECT_DOUBLE_EQ(c2.stall_us, 5.0);
  EXPECT_EQ(c2.migrations, 3);
  EXPECT_EQ(c2.sojourn_ns.count(), 2);
  // Class sums preserve the per-span partition.
  EXPECT_EQ(c2.queue_us + c2.exec_us + c2.preempt_us, 110 + 300);
}

TEST(Attribution, TopKSlowestBreaksTiesTowardLowerId) {
  std::vector<RequestSpan> spans;
  spans.push_back(make_span(5, 0, 0, 0, 300, 300));   // sojourn 300
  spans.push_back(make_span(9, 0, 0, 0, 1000, 1000)); // sojourn 1000
  spans.push_back(make_span(3, 0, 0, 0, 1000, 1000)); // sojourn 1000 (tie)
  spans.push_back(make_span(1, 0, 0, 0, 50, 50));     // sojourn 50

  const auto idx = obs::top_k_slowest(spans, 3);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(spans[idx[0]].id, 3);  // Tie at 1000us: lower id first.
  EXPECT_EQ(spans[idx[1]].id, 9);
  EXPECT_EQ(spans[idx[2]].id, 5);

  EXPECT_EQ(obs::top_k_slowest(spans, 100).size(), spans.size());
  EXPECT_TRUE(obs::top_k_slowest({}, 5).empty());
}

TEST(Attribution, BlamePicksDominantComponent) {
  // queue 900 dominates exec 50 + preempt 50.
  EXPECT_STREQ(obs::blame(make_span(1, 0, 0, 900, 1000, 50)), "queue");
  // exec 800 (stall 10) dominates queue 100 + preempt 100.
  EXPECT_STREQ(obs::blame(make_span(2, 0, 0, 100, 1000, 800, 10.0)), "exec");
  // Same shape but warmup is most of exec: blame the stall, not the work.
  EXPECT_STREQ(obs::blame(make_span(3, 0, 0, 100, 1000, 800, 700.0)), "stall");
  // preempt 800 dominates queue 100 + exec 100.
  EXPECT_STREQ(obs::blame(make_span(4, 0, 0, 100, 1000, 100)), "preempt");
}

TEST(Attribution, StormDetectionCoalescesOverlappingWindows) {
  // Burst of 5 migrations within 100us, then quiet, then a pair (below
  // threshold), then a second burst.
  std::vector<std::int64_t> ts = {0,    20,   40,  60,  80,      // storm 1
                                  5000, 5100,                    // quiet pair
                                  9000, 9010, 9020, 9030, 9040}; // storm 2
  const auto storms = obs::detect_migration_storms(ts, 100, 5);
  ASSERT_EQ(storms.size(), 2u);
  EXPECT_EQ(storms[0].start_us, 0);
  EXPECT_EQ(storms[0].end_us, 80);
  EXPECT_EQ(storms[0].migrations, 5);
  EXPECT_EQ(storms[1].start_us, 9000);
  EXPECT_EQ(storms[1].migrations, 5);

  EXPECT_TRUE(obs::detect_migration_storms(ts, 100, 6).empty());
  EXPECT_TRUE(obs::detect_migration_storms({}, 100, 1).empty());
}

TEST(OverheadMeter, ScopedSectionsAccumulateAndNullMeterIsNoop) {
  obs::OverheadMeter meter;
  { obs::OverheadMeter::Scoped s(&meter); }
  { obs::OverheadMeter::Scoped s(&meter); }
  EXPECT_EQ(meter.sections(), 2);
  EXPECT_GE(meter.total_ns(), 0);
  EXPECT_GE(meter.pct_of(1.0), 0.0);
  EXPECT_EQ(meter.pct_of(0.0), 0.0);
  { obs::OverheadMeter::Scoped s(nullptr); }  // Must not crash.
}

}  // namespace
}  // namespace speedbal
