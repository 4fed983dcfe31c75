#include "workload/generator.hpp"

#include <gtest/gtest.h>

namespace speedbal {
namespace {

TEST(Generator, BarrierConfigsMatchRuntimes) {
  EXPECT_EQ(workload::upc_yield_barrier().policy, WaitPolicy::Yield);

  const auto omp = workload::intel_omp_default_barrier();
  EXPECT_EQ(omp.policy, WaitPolicy::Sleep);
  EXPECT_EQ(omp.block_time, msec(200));  // KMP_BLOCKTIME default.

  EXPECT_EQ(workload::omp_polling_barrier().policy, WaitPolicy::Spin);

  const auto usleep = workload::usleep_barrier();
  EXPECT_EQ(usleep.policy, WaitPolicy::SleepPoll);
  EXPECT_EQ(usleep.poll_period, msec(1));
}

TEST(Generator, UniformAppFields) {
  const auto spec = workload::uniform_app(8, 5, 1234.0);
  EXPECT_EQ(spec.nthreads, 8);
  EXPECT_EQ(spec.phases, 5);
  EXPECT_DOUBLE_EQ(spec.work_per_phase_us, 1234.0);
  EXPECT_EQ(spec.barrier.policy, WaitPolicy::Yield);
  EXPECT_EQ(spec.mem_intensity, 0.0);
}

TEST(Generator, FirstCores) {
  EXPECT_EQ(workload::first_cores(3), (std::vector<CoreId>{0, 1, 2}));
  EXPECT_TRUE(workload::first_cores(0).empty());
}

}  // namespace
}  // namespace speedbal
