#include "native/affinity.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

namespace speedbal::native {
namespace {

TEST(CpuSet, BasicOperations) {
  CpuSet s;
  EXPECT_TRUE(s.empty());
  s.add(0);
  s.add(3);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(1));
  s.remove(0);
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.cpus(), (std::vector<int>{3}));
}

TEST(CpuSet, Factories) {
  EXPECT_EQ(CpuSet::single(5).mask(), 1ULL << 5);
  EXPECT_EQ(CpuSet(0b1010).cpus(), (std::vector<int>{1, 3}));
}

TEST(CpuSet, ListParsing) {
  EXPECT_EQ(CpuSet::parse_list("0-2,5"), CpuSet(0b100111));
  EXPECT_EQ(CpuSet::parse_list("7"), CpuSet::single(7));
  EXPECT_EQ(CpuSet::parse_list("0,1"), CpuSet(0b11));
  EXPECT_TRUE(CpuSet::parse_list("").empty());
  EXPECT_THROW(CpuSet::parse_list("abc"), std::invalid_argument);
  EXPECT_THROW(CpuSet::parse_list("5-2"), std::invalid_argument);
  EXPECT_THROW(CpuSet::parse_list("64"), std::invalid_argument);
}

TEST(Affinity, OnlineCpusPositive) { EXPECT_GE(online_cpus(), 1); }

TEST(Affinity, SelfRoundTrip) {
  const pid_t self = static_cast<pid_t>(::gettid());
  const CpuSet original = get_affinity(self);
  ASSERT_FALSE(original.empty());
  // Restrict to CPU 0 (always present), verify, then restore.
  ASSERT_TRUE(set_affinity(self, CpuSet::single(0)));
  EXPECT_EQ(get_affinity(self), CpuSet::single(0));
  EXPECT_EQ(current_cpu(), 0);
  ASSERT_TRUE(set_affinity(self, original));
  EXPECT_EQ(get_affinity(self), original);
}

TEST(Affinity, NonexistentThreadFailsGracefully) {
  // A tid that cannot exist: set returns false, get returns empty.
  const pid_t bogus = 3999991;
  if (::kill(bogus, 0) == 0) GTEST_SKIP() << "improbable pid exists";
  EXPECT_FALSE(set_affinity(bogus, CpuSet::single(0)));
  EXPECT_TRUE(get_affinity(bogus).empty());
}

TEST(Affinity, CurrentCpuWithinAffinity) {
  const pid_t self = static_cast<pid_t>(::gettid());
  EXPECT_TRUE(get_affinity(self).contains(current_cpu()));
}

}  // namespace
}  // namespace speedbal::native
