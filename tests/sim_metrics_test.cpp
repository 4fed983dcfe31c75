#include "sim/metrics.hpp"

#include <gtest/gtest.h>

namespace speedbal {
namespace {

TEST(Metrics, RecordsExecByCore) {
  Metrics m(4);
  m.record_exec(1, 0, 0, msec(10));
  m.record_exec(1, 0, msec(10), msec(5));
  m.record_exec(1, 3, msec(15), msec(20));
  const auto& per_core = m.exec_by_core(1);
  ASSERT_EQ(per_core.size(), 4u);
  EXPECT_EQ(per_core[0], msec(15));
  EXPECT_EQ(per_core[1], 0);
  EXPECT_EQ(per_core[3], msec(20));
  EXPECT_EQ(m.total_exec(1), msec(35));
}

TEST(Metrics, UnknownTaskHasZeroExec) {
  Metrics m(2);
  EXPECT_EQ(m.total_exec(42), 0);
  EXPECT_EQ(m.exec_by_core(42).size(), 2u);
}

TEST(Metrics, UnknownTaskVectorSizedToCores) {
  // Regression: the shared fallback vector must be sized to the core count
  // at construction, for every Metrics instance, before any run is
  // recorded — callers index it with raw core ids.
  Metrics wide(8);
  Metrics narrow(3);
  const auto& w = wide.exec_by_core(7);
  const auto& n = narrow.exec_by_core(7);
  ASSERT_EQ(w.size(), 8u);
  ASSERT_EQ(n.size(), 3u);
  for (const SimTime t : w) EXPECT_EQ(t, 0);
  for (const SimTime t : n) EXPECT_EQ(t, 0);
  EXPECT_EQ(w[7], 0);  // Indexable across the full core range.
}

TEST(Metrics, MigrationCountsByCause) {
  Metrics m(4);
  m.record_migration({usec(10), 1, 0, 1, MigrationCause::SpeedBalancer});
  m.record_migration({usec(20), 2, 1, 2, MigrationCause::LinuxPeriodic});
  m.record_migration({usec(30), 1, 1, 3, MigrationCause::SpeedBalancer});
  const auto by_cause = m.migration_counts_by_cause();
  ASSERT_EQ(by_cause.size(), 2u);
  EXPECT_EQ(by_cause.at(MigrationCause::SpeedBalancer), 2);
  EXPECT_EQ(by_cause.at(MigrationCause::LinuxPeriodic), 1);
}

TEST(Metrics, MigrationLogAndCounts) {
  Metrics m(4);
  m.record_migration({usec(10), 1, 0, 1, MigrationCause::SpeedBalancer});
  m.record_migration({usec(20), 2, 1, 2, MigrationCause::LinuxPeriodic});
  m.record_migration({usec(30), 1, 1, 3, MigrationCause::SpeedBalancer});
  EXPECT_EQ(m.migration_count(), 3);
  EXPECT_EQ(m.migration_count(MigrationCause::SpeedBalancer), 2);
  EXPECT_EQ(m.migration_count(MigrationCause::LinuxPeriodic), 1);
  EXPECT_EQ(m.migration_count(MigrationCause::Dwrr), 0);
  ASSERT_EQ(m.migrations().size(), 3u);
  EXPECT_EQ(m.migrations()[0].task, 1);
  EXPECT_EQ(m.migrations()[1].from, 1);
  EXPECT_EQ(m.migrations()[2].to, 3);
}

TEST(Metrics, SegmentsAndWindowQueries) {
  Metrics m(2);
  m.record_exec(1, 0, usec(0), usec(100));
  m.record_exec(1, 1, usec(200), usec(100));
  m.record_exec(2, 0, usec(100), usec(100));
  ASSERT_EQ(m.segments().size(), 3u);
  // Full window.
  EXPECT_EQ(m.exec_in_window(1, 0, usec(300)), usec(200));
  // Clipped at both ends.
  EXPECT_EQ(m.exec_in_window(1, usec(50), usec(250)), usec(100));
  // Empty window / unknown task.
  EXPECT_EQ(m.exec_in_window(1, usec(400), usec(500)), 0);
  EXPECT_EQ(m.exec_in_window(9, 0, usec(300)), 0);
}

TEST(Metrics, CachedCauseTallyTracksEveryRecord) {
  // The per-cause totals are a running tally, not a log rescan; they must
  // stay exact across interleaved causes and agree with the full log.
  Metrics m(4);
  const MigrationCause causes[] = {
      MigrationCause::SpeedBalancer, MigrationCause::LinuxPeriodic,
      MigrationCause::LinuxNewIdle, MigrationCause::SpeedBalancer,
      MigrationCause::Hotplug};
  for (int round = 0; round < 100; ++round)
    for (const auto c : causes)
      m.record_migration({usec(round), 1, 0, 1, c});
  EXPECT_EQ(m.migration_count(), 500);
  EXPECT_EQ(m.migration_count(MigrationCause::SpeedBalancer), 200);
  EXPECT_EQ(m.migration_count(MigrationCause::LinuxPeriodic), 100);
  EXPECT_EQ(m.migration_count(MigrationCause::Hotplug), 100);
  EXPECT_EQ(m.migration_count(MigrationCause::Dwrr), 0);
  const auto by_cause = m.migration_counts_by_cause();
  ASSERT_EQ(by_cause.size(), 4u);
  std::int64_t sum = 0;
  for (const auto& [cause, n] : by_cause) sum += n;
  EXPECT_EQ(sum, m.migration_count());
}

TEST(Metrics, WindowQueryExactAtSegmentBoundaries) {
  Metrics m(2);
  // Three segments of task 1: [0,100), [200,300), [300,400).
  m.record_exec(1, 0, usec(0), usec(100));
  m.record_exec(1, 1, usec(200), usec(100));
  m.record_exec(1, 0, usec(300), usec(100));
  // Window touching a segment edge exactly includes/excludes it.
  EXPECT_EQ(m.exec_in_window(1, usec(100), usec(200)), 0);
  EXPECT_EQ(m.exec_in_window(1, usec(100), usec(201)), usec(1));
  EXPECT_EQ(m.exec_in_window(1, usec(99), usec(200)), usec(1));
  // Window inside one segment.
  EXPECT_EQ(m.exec_in_window(1, usec(220), usec(280)), usec(60));
  // Window spanning all.
  EXPECT_EQ(m.exec_in_window(1, 0, usec(400)), usec(300));
  // Inverted / empty windows.
  EXPECT_EQ(m.exec_in_window(1, usec(300), usec(300)), 0);
  EXPECT_EQ(m.exec_in_window(1, usec(400), usec(100)), 0);
}

TEST(Metrics, OutOfOrderSegmentRecordingStillSums) {
  // The Simulator emits a task's segments in time order, but other callers
  // may not; windowed sums must not depend on recording order.
  Metrics m(2);
  m.record_exec(1, 0, usec(200), usec(50));
  m.record_exec(1, 1, usec(0), usec(100));
  m.record_exec(1, 0, usec(120), usec(30));
  EXPECT_EQ(m.exec_in_window(1, 0, usec(300)), usec(180));
  EXPECT_EQ(m.exec_in_window(1, usec(50), usec(130)), usec(60));
  EXPECT_EQ(m.exec_in_window(1, usec(130), usec(210)), usec(30));
}

TEST(Metrics, ResidencyFraction) {
  Metrics m(4);
  m.record_exec(1, 0, 0, usec(300));
  m.record_exec(1, 3, usec(300), usec(100));
  EXPECT_DOUBLE_EQ(m.residency_fraction(1, [](CoreId c) { return c == 0; }), 0.75);
  EXPECT_DOUBLE_EQ(m.residency_fraction(1, [](CoreId c) { return c < 2; }), 0.75);
  EXPECT_DOUBLE_EQ(m.residency_fraction(1, [](CoreId) { return true; }), 1.0);
  EXPECT_DOUBLE_EQ(m.residency_fraction(7, [](CoreId) { return true; }), 0.0);
}

TEST(Metrics, SegmentsMatchRunTotals) {
  // The segment log and the exec table see the same records: a window
  // covering the whole run sums to the task's total.
  Metrics m(2);
  m.record_exec(1, 0, 0, usec(120));
  m.record_exec(1, 1, usec(120), usec(80));
  EXPECT_EQ(m.exec_in_window(1, 0, sec(1)), m.total_exec(1));
}

TEST(Metrics, AdjacentSegmentsSumExactlyUnmerged) {
  // A stretch cut into adjacent same-core pieces (as sync_accounting does)
  // sums across the cut exactly like one segment would.
  Metrics m(2);
  m.record_exec(1, 0, usec(0), usec(50));
  m.record_exec(1, 0, usec(50), usec(50));
  m.record_exec(1, 1, usec(100), usec(50));
  EXPECT_EQ(m.exec_in_window(1, 0, usec(150)), usec(150));
  EXPECT_EQ(m.exec_in_window(1, usec(25), usec(75)), usec(50));
  EXPECT_EQ(m.exec_in_window(1, usec(75), usec(125)), usec(50));
  ASSERT_EQ(m.segments().size(), 3u);  // The raw log never merges.
}

TEST(Metrics, ResetThenReuse) {
  // reset() must drop every record and leave the instance fully usable for
  // a fresh run.
  Metrics m(2);
  for (int i = 0; i < 5000; ++i)
    m.record_exec(1, i % 2, usec(i * 10), usec(5));
  EXPECT_EQ(m.exec_in_window(1, 0, usec(100'000)), usec(25'000));
  m.reset();
  EXPECT_EQ(m.total_exec(1), 0);
  EXPECT_EQ(m.exec_in_window(1, 0, usec(100'000)), 0);
  EXPECT_EQ(m.segments().size(), 0u);
  for (int i = 0; i < 5000; ++i)
    m.record_exec(2, i % 2, usec(i * 10), usec(5));
  EXPECT_EQ(m.exec_in_window(2, 0, usec(100'000)), usec(25'000));
  EXPECT_EQ(m.exec_in_window(1, 0, usec(100'000)), 0);
}

TEST(Metrics, CauseNames) {
  EXPECT_STREQ(to_string(MigrationCause::SpeedBalancer), "speed");
  EXPECT_STREQ(to_string(MigrationCause::LinuxNewIdle), "linux-newidle");
  EXPECT_STREQ(to_string(MigrationCause::Dwrr), "dwrr");
  EXPECT_STREQ(to_string(MigrationCause::Ule), "ule");
}

}  // namespace
}  // namespace speedbal
