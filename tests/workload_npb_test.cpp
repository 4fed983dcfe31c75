#include "workload/npb.hpp"

#include <gtest/gtest.h>

namespace speedbal {
namespace {

TEST(Npb, PaperSelectionMatchesTable2) {
  const auto sel = npb::paper_selection();
  ASSERT_EQ(sel.size(), 5u);
  EXPECT_EQ(sel[0].full_name(), "bt.A");
  EXPECT_EQ(sel[1].full_name(), "ft.B");
  EXPECT_EQ(sel[2].full_name(), "is.C");
  EXPECT_EQ(sel[3].full_name(), "sp.A");
  EXPECT_EQ(sel[4].full_name(), "cg.B");
}

TEST(Npb, EpIsComputeOnly) {
  const auto p = npb::ep('C');
  EXPECT_EQ(p.mem_intensity, 0.0);
  EXPECT_EQ(p.mem_bw_demand, 0.0);
  // Section 6.1: ~27 s of computation per thread at class C.
  EXPECT_NEAR(p.phases * p.work_per_phase_us, 27e6, 1e3);
}

TEST(Npb, Table2InterBarrierTimes) {
  // ft.B ~73 ms, is.C ~44 ms, sp.A ~2 ms, cg.B ~4 ms (Table 2 / Section 6.2).
  EXPECT_NEAR(npb::ft('B').work_per_phase_us, 73'000.0, 1.0);
  EXPECT_NEAR(npb::is('C').work_per_phase_us, 44'000.0, 1.0);
  EXPECT_NEAR(npb::sp('A').work_per_phase_us, 2'000.0, 1.0);
  EXPECT_NEAR(npb::cg('B').work_per_phase_us, 4'000.0, 1.0);
}

TEST(Npb, ClassScalingIsFourPerStep) {
  const auto a = npb::bt('A');
  const auto b = npb::bt('B');
  const auto s = npb::bt('S');
  EXPECT_NEAR(b.work_per_phase_us / a.work_per_phase_us, 4.0, 1e-9);
  EXPECT_NEAR(a.work_per_phase_us / s.work_per_phase_us, 4.0, 1e-9);
  EXPECT_NEAR(b.rss_mb_per_core / a.rss_mb_per_core, 4.0, 1e-9);
  EXPECT_EQ(a.phases, b.phases);  // Iteration count does not scale.
}

TEST(Npb, MemoryBenchmarksAreBandwidthHungry) {
  for (const auto& p : {npb::bt(), npb::ft(), npb::is()}) {
    EXPECT_GT(p.mem_intensity, 0.5) << p.full_name();
    EXPECT_GT(p.mem_bw_demand, 0.5) << p.full_name();
    EXPECT_GT(p.rss_mb_per_core, 10.0) << p.full_name();
  }
}

TEST(Npb, ToSpecScalesWorkWithThreads) {
  const auto p = npb::ft('B');
  BarrierConfig barrier;
  const auto at16 = p.to_spec(16, barrier);
  const auto at4 = p.to_spec(4, barrier);
  // Fixed problem size: 4 threads each carry 4x the per-thread work.
  EXPECT_NEAR(at4.work_per_phase_us, 4.0 * at16.work_per_phase_us, 1e-9);
  EXPECT_EQ(at4.phases, at16.phases);
  EXPECT_EQ(at16.nthreads, 16);
  EXPECT_EQ(at16.name, "ft.B");
  EXPECT_NEAR(at16.mem_footprint_kb, p.rss_mb_per_core * 1024.0, 1e-9);
}

TEST(Npb, ByNameRoundTrips) {
  for (const auto& p : {npb::ep('C'), npb::bt('A'), npb::ft('B'), npb::is('C'),
                        npb::sp('A'), npb::cg('B'), npb::mg('B'), npb::lu('A')}) {
    const auto q = npb::by_name(p.full_name());
    EXPECT_EQ(q.full_name(), p.full_name());
    EXPECT_EQ(q.phases, p.phases);
    EXPECT_DOUBLE_EQ(q.work_per_phase_us, p.work_per_phase_us);
  }
  EXPECT_THROW(npb::by_name("xy.Z"), std::invalid_argument);
  EXPECT_THROW(npb::by_name("bt.Q"), std::invalid_argument);
}

}  // namespace
}  // namespace speedbal
