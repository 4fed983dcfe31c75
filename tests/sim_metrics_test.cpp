#include "sim/metrics.hpp"

#include <gtest/gtest.h>

namespace speedbal {
namespace {

/// Hands the run's kept segments over to `rec` and returns its table.
std::vector<obs::RunSegmentRecord> exported(Metrics& m, obs::RunRecorder& rec) {
  export_run_to_recorder(m, rec);
  return rec.run_segments().snapshot();
}

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
  obs::RunRecorder rec;
  Metrics m(2);
  m.set_recorder(&rec);
  m.record_exec(1, 0, usec(0), usec(100));
  m.record_exec(1, 1, usec(200), usec(100));
  m.record_exec(2, 0, usec(100), usec(100));
  const auto segs = exported(m, rec);
  ASSERT_EQ(segs.size(), 3u);
  // Full window.
  EXPECT_EQ(exec_in_window(segs, 1, 0, usec(300)), usec(200));
  // Clipped at both ends.
  EXPECT_EQ(exec_in_window(segs, 1, usec(50), usec(250)), usec(100));
  // Empty window / unknown task.
  EXPECT_EQ(exec_in_window(segs, 1, usec(400), usec(500)), 0);
  EXPECT_EQ(exec_in_window(segs, 9, 0, usec(300)), 0);
}

TEST(Metrics, UnrecordedRunKeepsNoSegments) {
  // No recorder, no segment log: the exec table still sees every stretch,
  // and an export finds nothing to hand over.
  Metrics m(2);
  for (int i = 0; i < 1000; ++i)
    m.record_exec(1, i % 2, usec(i * 10), usec(5));
  EXPECT_EQ(m.total_exec(1), usec(5000));
  EXPECT_EQ(m.segments_recorded(), 1000);
  EXPECT_EQ(m.kept_segments().capacity(), 0u);
  obs::RunRecorder rec;
  EXPECT_TRUE(exported(m, rec).empty());
  EXPECT_EQ(rec.run_segments().dropped(), 1000);
}

TEST(Metrics, RecordedRunAllocatesItsSegmentBufferOnce) {
  // A recorded run reserves the table's room at its first kept segment,
  // not at attach, and never moves the buffer after.
  obs::RunRecorder rec;
  rec.run_segments().set_cap(5000);
  Metrics m(2);
  m.set_recorder(&rec);
  EXPECT_EQ(m.kept_segments().capacity(), 0u);
  m.record_exec(1, 0, usec(0), usec(5));
  EXPECT_EQ(m.kept_segments().capacity(), 5000u);
  const obs::RunSegmentRecord* const first = m.kept_segments().data();
  for (int i = 1; i < 6000; ++i) {
    m.record_exec(1, i % 2, usec(i * 10), usec(5));
    ASSERT_EQ(m.kept_segments().data(), first) << i;
  }
  EXPECT_EQ(m.kept_segments().size(), 5000u);
  EXPECT_EQ(m.kept_segments().capacity(), 5000u);
  EXPECT_EQ(exported(m, rec).size(), 5000u);
  EXPECT_EQ(rec.run_segments().dropped(), 1000);

  // A cluster node shares the table with the other nodes, so its buffer
  // grows as it goes rather than reserving the whole room.
  obs::RunRecorder cluster;
  Metrics node(2);
  node.keep_segments_for(&cluster.run_segments(), 3);
  node.record_exec(1, 0, usec(0), usec(5));
  EXPECT_LT(node.kept_segments().capacity(), cluster.run_segments().room());
}

TEST(Metrics, KeptSegmentsStopAtTheTablesRoomAndCountTheRest) {
  obs::RunRecorder rec;
  rec.run_segments().set_cap(3);
  Metrics m(2);
  m.keep_segments_for(&rec.run_segments(), 5);
  for (int i = 0; i < 5; ++i) m.record_exec(i, 0, usec(i * 10), usec(10));
  const auto segs = exported(m, rec);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(rec.run_segments().dropped(), 2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(segs[static_cast<std::size_t>(i)].task, i);
    EXPECT_EQ(segs[static_cast<std::size_t>(i)].node, 5);
  }
  // Lowering the limit drops kept segments past it, counted as dropped.
  obs::RunRecorder next;
  Metrics n(2);
  n.set_recorder(&next);
  for (int i = 0; i < 5; ++i) n.record_exec(i, 1, usec(i * 10), usec(10));
  n.limit_segments(2);
  n.record_exec(9, 1, usec(100), usec(10));
  EXPECT_EQ(n.segments_recorded(), 6);
  EXPECT_EQ(exported(n, next).size(), 2u);
  EXPECT_EQ(next.run_segments().dropped(), 4);
  EXPECT_EQ(n.segments_recorded(), 0);
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
  obs::RunRecorder rec;
  Metrics m(2);
  m.set_recorder(&rec);
  // Three segments of task 1: [0,100), [200,300), [300,400).
  m.record_exec(1, 0, usec(0), usec(100));
  m.record_exec(1, 1, usec(200), usec(100));
  m.record_exec(1, 0, usec(300), usec(100));
  const auto segs = exported(m, rec);
  // Window touching a segment edge exactly includes/excludes it.
  EXPECT_EQ(exec_in_window(segs, 1, usec(100), usec(200)), 0);
  EXPECT_EQ(exec_in_window(segs, 1, usec(100), usec(201)), usec(1));
  EXPECT_EQ(exec_in_window(segs, 1, usec(99), usec(200)), usec(1));
  // Window inside one segment.
  EXPECT_EQ(exec_in_window(segs, 1, usec(220), usec(280)), usec(60));
  // Window spanning all.
  EXPECT_EQ(exec_in_window(segs, 1, 0, usec(400)), usec(300));
  // Inverted / empty windows.
  EXPECT_EQ(exec_in_window(segs, 1, usec(300), usec(300)), 0);
  EXPECT_EQ(exec_in_window(segs, 1, usec(400), usec(100)), 0);
}

TEST(Metrics, OutOfOrderSegmentRecordingStillSums) {
  // The Simulator emits a task's segments in time order, but other callers
  // may not; windowed sums must not depend on recording order.
  obs::RunRecorder rec;
  Metrics m(2);
  m.set_recorder(&rec);
  m.record_exec(1, 0, usec(200), usec(50));
  m.record_exec(1, 1, usec(0), usec(100));
  m.record_exec(1, 0, usec(120), usec(30));
  const auto segs = exported(m, rec);
  EXPECT_EQ(exec_in_window(segs, 1, 0, usec(300)), usec(180));
  EXPECT_EQ(exec_in_window(segs, 1, usec(50), usec(130)), usec(60));
  EXPECT_EQ(exec_in_window(segs, 1, usec(130), usec(210)), usec(30));
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
  obs::RunRecorder rec;
  Metrics m(2);
  m.set_recorder(&rec);
  m.record_exec(1, 0, 0, usec(120));
  m.record_exec(1, 1, usec(120), usec(80));
  EXPECT_EQ(exec_in_window(exported(m, rec), 1, 0, sec(1)), m.total_exec(1));
}

TEST(Metrics, AdjacentSegmentsSumExactlyUnmerged) {
  // A stretch cut into adjacent same-core pieces (as sync_accounting does)
  // sums across the cut exactly like one segment would.
  obs::RunRecorder rec;
  Metrics m(2);
  m.set_recorder(&rec);
  m.record_exec(1, 0, usec(0), usec(50));
  m.record_exec(1, 0, usec(50), usec(50));
  m.record_exec(1, 1, usec(100), usec(50));
  const auto segs = exported(m, rec);
  EXPECT_EQ(exec_in_window(segs, 1, 0, usec(150)), usec(150));
  EXPECT_EQ(exec_in_window(segs, 1, usec(25), usec(75)), usec(50));
  EXPECT_EQ(exec_in_window(segs, 1, usec(75), usec(125)), usec(50));
  ASSERT_EQ(segs.size(), 3u);  // The raw log never merges.
}

TEST(Metrics, CauseNames) {
  EXPECT_STREQ(to_string(MigrationCause::SpeedBalancer), "speed");
  EXPECT_STREQ(to_string(MigrationCause::LinuxNewIdle), "linux-newidle");
  EXPECT_STREQ(to_string(MigrationCause::Dwrr), "dwrr");
  EXPECT_STREQ(to_string(MigrationCause::Ule), "ule");
}

}  // namespace
}  // namespace speedbal
