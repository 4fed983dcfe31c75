#include "model/analytic.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace speedbal::model {
namespace {

TEST(Analytic, ShapeDecomposition) {
  const SpmdShape s{16, 6};
  EXPECT_EQ(s.threads_per_fast_core(), 2);  // T = floor(16/6).
  EXPECT_EQ(s.slow_queues(), 4);            // SQ = 16 mod 6.
  EXPECT_EQ(s.fast_queues(), 2);
  EXPECT_FALSE(s.balanced());
  EXPECT_TRUE((SpmdShape{16, 8}).balanced());
}

TEST(Analytic, Lemma1KnownValues) {
  // FQ >= SQ: two steps suffice (the paper's explicit claim).
  EXPECT_EQ(lemma1_steps({3, 2}), 2);    // SQ=1, FQ=1.
  EXPECT_EQ(lemma1_steps({5, 4}), 2);    // SQ=1, FQ=3.
  // FQ < SQ: 2 * ceil(SQ/FQ).
  EXPECT_EQ(lemma1_steps({16, 6}), 4);   // SQ=4, FQ=2: 2*2.
  EXPECT_EQ(lemma1_steps({7, 4}), 6);    // SQ=3, FQ=1: 2*3.
}

TEST(Analytic, Lemma1WorstCaseDiagonal) {
  // The paper's Fig. 1 worst case: M-1 slow cores, one fast core.
  const SpmdShape s{2 * 10 - 1, 10};  // N=19, M=10: T=1, SQ=9, FQ=1.
  EXPECT_EQ(lemma1_steps(s), 18);
}

TEST(Analytic, Lemma1BalancedIsZero) {
  EXPECT_EQ(lemma1_steps({8, 4}), 0);
  EXPECT_EQ(lemma1_steps({4, 4}), 0);
}

TEST(Analytic, MinProfitableSFormula) {
  // (T+1) * S > steps * B  =>  S_min = steps * B / (T+1).
  EXPECT_DOUBLE_EQ(min_profitable_s({3, 2}, 1.0), 2.0 / 2.0);
  EXPECT_DOUBLE_EQ(min_profitable_s({16, 6}, 1.0), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(min_profitable_s({16, 8}, 1.0), 0.0);
  // Scales linearly in B.
  EXPECT_DOUBLE_EQ(min_profitable_s({3, 2}, 0.1), 0.1);
}

TEST(Analytic, ProgramSpeeds) {
  // 3 threads on 2 cores: Linux runs the app at 1/2. The paper's midpoint
  // (1/1 + 1/2)/2 = 3/4 (Section 4) is above the capacity ceiling M/N =
  // 2/3, so ideal speed balancing reaches 2/3 and improves by 4/3.
  const SpmdShape s{3, 2};
  EXPECT_DOUBLE_EQ(linux_program_speed(s), 0.5);
  EXPECT_DOUBLE_EQ(paper_midpoint_speed(s), 0.75);
  EXPECT_DOUBLE_EQ(speed_balanced_speed(s), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ideal_improvement(s), 4.0 / 3.0);
}

TEST(Analytic, MidpointBelowCapacityIsKept) {
  // 16 threads on 12 cores (cg.B on tigerton): SQ/M = 1/3 = T/(2T+1), so
  // the midpoint 3/4 equals M/N and the cap does not bind. 13 on 12 sits
  // well below it: midpoint 3/4 against M/N = 12/13.
  EXPECT_DOUBLE_EQ(speed_balanced_speed({16, 12}), 0.75);
  EXPECT_DOUBLE_EQ(speed_balanced_speed({13, 12}), 0.75);
  EXPECT_DOUBLE_EQ(ideal_improvement({13, 12}), 1.5);
}

TEST(Analytic, ImprovementShrinksWithMoreThreadsPerCore) {
  // One extra thread on 2 cores always hits the capacity ceiling, so the
  // gain is (2/(2T+1)) / (1/(T+1)) = (2T+2)/(2T+1) rather than the paper's
  // 1 + 1/(2T); both decay as oversubscription grows.
  double prev = 10.0;
  for (int t = 1; t <= 8; ++t) {
    const SpmdShape s{2 * t + 1, 2};  // T = t, one extra thread.
    const double gain = ideal_improvement(s);
    EXPECT_DOUBLE_EQ(gain, (2.0 * t + 2.0) / (2.0 * t + 1.0));
    EXPECT_DOUBLE_EQ(paper_midpoint_speed(s) / linux_program_speed(s),
                     1.0 + 1.0 / (2.0 * t));
    EXPECT_LT(gain, prev);
    prev = gain;
  }
}

TEST(Analytic, BalancedShapesNeutral) {
  const SpmdShape s{8, 4};
  EXPECT_DOUBLE_EQ(linux_program_speed(s), 0.5);
  EXPECT_DOUBLE_EQ(speed_balanced_speed(s), 0.5);
  EXPECT_DOUBLE_EQ(ideal_improvement(s), 1.0);
}

TEST(Analytic, MakespanLowerBound) {
  EXPECT_DOUBLE_EQ(phase_makespan_lower_bound({16, 6}, 1.0), 16.0 / 6.0);
  EXPECT_DOUBLE_EQ(phase_makespan_lower_bound({4, 4}, 2.0), 2.0);
}

TEST(Analytic, RejectsInvalidShapes) {
  EXPECT_THROW(lemma1_steps({2, 3}), std::invalid_argument);  // N < M.
  EXPECT_THROW(lemma1_steps({0, 0}), std::invalid_argument);
  EXPECT_THROW(min_profitable_s({1, 2}, 1.0), std::invalid_argument);
}

// Parameterized sweep: structural properties of the Fig. 1 surface.
class SMinSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SMinSweep, SurfaceProperties) {
  const auto [cores, extra] = GetParam();
  const int threads = cores + extra;
  const SpmdShape s{threads, cores};
  const double smin = min_profitable_s(s, 1.0);
  const int steps = lemma1_steps(s);

  // Bounds: steps is even, at most 2*ceil((M-1)/1), and S_min nonnegative.
  EXPECT_GE(smin, 0.0);
  EXPECT_EQ(steps % 2, 0);
  EXPECT_LE(steps, 2 * (cores - 1));

  // Consistency: S_min == steps * B / (T+1).
  if (!s.balanced()) {
    EXPECT_DOUBLE_EQ(smin,
                     steps / static_cast<double>(s.threads_per_fast_core() + 1));
  }

  // More threads on the same cores never increases the required S for the
  // same remainder pattern: adding full rows increases T.
  const SpmdShape denser{threads + cores, cores};
  EXPECT_LE(min_profitable_s(denser, 1.0), smin + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SMinSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 10, 16, 32, 100),
                       ::testing::Values(1, 2, 3, 7, 15)));

}  // namespace
}  // namespace speedbal::model
