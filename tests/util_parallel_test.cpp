#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace speedbal {
namespace {

TEST(ResolveJobs, NonPositiveMeansDefaultAndValuesClamp) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
  EXPECT_EQ(resolve_jobs(100000), 256);
}

TEST(ReplicaSeed, MatchesExperimentSaltFormula) {
  // The salt formula predates the parallel layer; sweeps recorded before
  // --jobs existed must replay byte-identically, so the formula is frozen.
  EXPECT_EQ(replica_seed(42, 0), 42ULL * 1000003ULL + 1);
  EXPECT_EQ(replica_seed(42, 3), 42ULL * 1000003ULL + 3ULL * 7919ULL + 1);
  EXPECT_NE(replica_seed(1, 2), replica_seed(2, 1));
}

TEST(ThreadPool, RunsEverySubmittedJobOnce) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) pool.submit([&] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(jobs, hits.size(),
                 [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ParallelFor, ResultsIndependentOfJobCount) {
  auto run = [](int jobs) {
    std::vector<std::uint64_t> out(64);
    parallel_for(jobs, out.size(), [&](std::size_t i) {
      std::uint64_t x = i + 1;
      for (int k = 0; k < 1000; ++k) x = x * 6364136223846793005ULL + 1;
      out[i] = x;
    });
    return out;
  };
  const auto seq = run(1);
  EXPECT_EQ(seq, run(4));
  EXPECT_EQ(seq, run(16));
}

TEST(ParallelFor, FirstExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(4, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ZeroItemsIsANoop) {
  parallel_for(4, 0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelForSeeds, SeedsMatchSequentialFormulaAtAnyWidth) {
  for (const int jobs : {1, 3, 8}) {
    std::mutex mu;
    std::vector<std::uint64_t> seeds(6, 0);
    std::set<std::thread::id> tids;
    parallel_for_seeds(jobs, 6, /*base_seed=*/99,
                       [&](int rep, std::uint64_t seed) {
                         std::lock_guard<std::mutex> lock(mu);
                         seeds[static_cast<std::size_t>(rep)] = seed;
                         tids.insert(std::this_thread::get_id());
                       });
    for (int rep = 0; rep < 6; ++rep)
      EXPECT_EQ(seeds[static_cast<std::size_t>(rep)], replica_seed(99, rep))
          << "jobs=" << jobs << " rep=" << rep;
    if (jobs == 1) {
      EXPECT_EQ(tids.size(), 1u);
    }
  }
}

}  // namespace
}  // namespace speedbal
