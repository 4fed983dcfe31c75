#include "topo/presets.hpp"

#include <gtest/gtest.h>

namespace speedbal {
namespace {

TEST(Presets, TigertonMatchesTable1) {
  // Intel Xeon E7310: UMA quad-socket quad-core, L2 shared per core pair.
  const auto t = presets::tigerton();
  EXPECT_EQ(t.num_cores(), 16);
  EXPECT_EQ(t.num_sockets(), 4);
  EXPECT_EQ(t.num_numa_nodes(), 1);
  EXPECT_EQ(t.num_cache_groups(), 8);
  EXPECT_FALSE(t.has_smt());
  EXPECT_TRUE(t.same_cache(0, 1));
  EXPECT_FALSE(t.same_cache(1, 2));
}

TEST(Presets, BarcelonaMatchesTable1) {
  // AMD Opteron 8350: NUMA quad-socket quad-core, L3 shared per socket.
  const auto t = presets::barcelona();
  EXPECT_EQ(t.num_cores(), 16);
  EXPECT_EQ(t.num_sockets(), 4);
  EXPECT_EQ(t.num_numa_nodes(), 4);
  EXPECT_EQ(t.num_cache_groups(), 4);
  EXPECT_TRUE(t.same_cache(0, 3));
  EXPECT_FALSE(t.same_numa(3, 4));
}

TEST(Presets, NehalemIsSmtNuma) {
  // 2 x 4 x (2): NUMA SMT (Section 6).
  const auto t = presets::nehalem();
  EXPECT_EQ(t.num_cores(), 16);
  EXPECT_EQ(t.num_numa_nodes(), 2);
  EXPECT_TRUE(t.has_smt());
  EXPECT_EQ(t.core(0).smt_sibling, 1);
}

TEST(Presets, GenericShapes) {
  EXPECT_EQ(presets::generic(1).num_cores(), 1);
  EXPECT_EQ(presets::generic(8).num_cores(), 8);
}

TEST(Presets, AsymmetricScales) {
  const auto t = presets::asymmetric(4, 2, 1.5);
  EXPECT_DOUBLE_EQ(t.core(0).clock_scale, 1.5);
  EXPECT_DOUBLE_EQ(t.core(1).clock_scale, 1.5);
  EXPECT_DOUBLE_EQ(t.core(2).clock_scale, 1.0);
  EXPECT_DOUBLE_EQ(t.core(3).clock_scale, 1.0);
  EXPECT_THROW(presets::asymmetric(2, 3, 1.5), std::invalid_argument);
}

TEST(Presets, ByName) {
  EXPECT_EQ(presets::by_name("tigerton").name(), "tigerton");
  EXPECT_EQ(presets::by_name("barcelona").num_numa_nodes(), 4);
  EXPECT_EQ(presets::by_name("nehalem").num_cores(), 16);
  EXPECT_EQ(presets::by_name("generic6").num_cores(), 6);
  EXPECT_THROW(presets::by_name("pentium"), std::invalid_argument);
  EXPECT_THROW(presets::by_name("generic0"), std::invalid_argument);
}

}  // namespace
}  // namespace speedbal
