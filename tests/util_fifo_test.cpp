#include "util/fifo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "util/rng.hpp"

namespace speedbal {
namespace {

/// Size, front and the full oldest-to-newest order must match the reference.
void expect_same(const Fifo<std::int64_t>& q,
                 const std::deque<std::int64_t>& ref, int step) {
  ASSERT_EQ(q.size(), ref.size()) << "step " << step;
  ASSERT_EQ(q.empty(), ref.empty()) << "step " << step;
  if (!ref.empty()) {
    ASSERT_EQ(q.front(), ref.front()) << "step " << step;
  }
  const std::vector<std::int64_t> got(q.begin(), q.end());
  const std::vector<std::int64_t> want(ref.begin(), ref.end());
  ASSERT_EQ(got, want) << "step " << step;
}

TEST(Fifo, StartsEmptyWithoutAllocating) {
  const Fifo<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
  EXPECT_EQ(q.begin(), q.end());
}

TEST(Fifo, WrapsAroundWithoutGrowing) {
  // Keep 5 elements live while pushing 100: the head laps the 8-slot ring
  // many times and the capacity never moves.
  Fifo<int> q;
  std::deque<int> ref;
  for (int i = 0; i < 100; ++i) {
    q.push_back(i);
    ref.push_back(i);
    if (q.size() > 5) {
      q.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(q.front(), ref.front());
  }
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(std::vector<int>(q.begin(), q.end()),
            std::vector<int>(ref.begin(), ref.end()));
}

TEST(Fifo, GrowsFromAWrappedRingInOrder) {
  // Offset the head, then overfill: the unrolled copy must keep FIFO order.
  Fifo<int> q;
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();
  for (int i = 6; i < 30; ++i) q.push_back(i);
  EXPECT_EQ(q.capacity(), 32u);
  std::vector<int> want;
  for (int i = 5; i < 30; ++i) want.push_back(i);
  EXPECT_EQ(std::vector<int>(q.begin(), q.end()), want);
}

TEST(Fifo, ClearKeepsCapacity) {
  Fifo<int> q;
  for (int i = 0; i < 20; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.begin(), q.end());
  EXPECT_EQ(q.capacity(), cap);
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Fifo, MatchesDequeUnderRandomOperations) {
  // Random push / pop / clear with bursts that force growth and long runs
  // of pops that wrap the head, checked against std::deque after every op.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 44ULL, 555ULL}) {
    Rng rng(seed);
    Fifo<std::int64_t> q;
    std::deque<std::int64_t> ref;
    std::int64_t next = 0;
    for (int step = 0; step < 5000; ++step) {
      const std::uint64_t op = rng.uniform_u64(100);
      if (op < 2) {
        q.clear();
        ref.clear();
      } else if (op < 10) {
        const auto burst = static_cast<int>(rng.uniform_u64(40));
        for (int i = 0; i < burst; ++i) {
          q.push_back(next);
          ref.push_back(next++);
        }
      } else if (op < 55) {
        q.push_back(next);
        ref.push_back(next++);
      } else if (!ref.empty()) {
        q.pop_front();
        ref.pop_front();
      }
      expect_same(q, ref, step);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace speedbal
