#include "topo/topology.hpp"

#include <gtest/gtest.h>

#include <set>

namespace speedbal {
namespace {

TEST(Topology, GenericSingleSocket) {
  TopologySpec spec;
  spec.cores_per_socket = 4;
  const auto t = Topology::build(spec);
  EXPECT_EQ(t.num_cores(), 4);
  EXPECT_EQ(t.num_sockets(), 1);
  EXPECT_EQ(t.num_numa_nodes(), 1);
  EXPECT_EQ(t.num_cache_groups(), 1);
  EXPECT_FALSE(t.has_smt());
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(t.core(c).id, c);
    EXPECT_EQ(t.core(c).smt_sibling, -1);
    EXPECT_DOUBLE_EQ(t.core(c).clock_scale, 1.0);
  }
}

TEST(Topology, CacheGroupsPartitionSockets) {
  TopologySpec spec;
  spec.sockets_per_node = 2;
  spec.cores_per_socket = 4;
  spec.cores_per_cache_group = 2;
  const auto t = Topology::build(spec);
  EXPECT_EQ(t.num_cores(), 8);
  EXPECT_EQ(t.num_cache_groups(), 4);
  EXPECT_TRUE(t.same_cache(0, 1));
  EXPECT_FALSE(t.same_cache(1, 2));
  EXPECT_TRUE(t.same_socket(0, 3));
  EXPECT_FALSE(t.same_socket(3, 4));
}

TEST(Topology, NumaNodesSeparateSockets) {
  TopologySpec spec;
  spec.numa_nodes = 2;
  spec.sockets_per_node = 1;
  spec.cores_per_socket = 2;
  const auto t = Topology::build(spec);
  EXPECT_EQ(t.num_numa_nodes(), 2);
  EXPECT_TRUE(t.same_numa(0, 1));
  EXPECT_FALSE(t.same_numa(1, 2));
}

TEST(Topology, SmtSiblingsArePaired) {
  TopologySpec spec;
  spec.cores_per_socket = 2;
  spec.smt_per_core = 2;
  const auto t = Topology::build(spec);
  EXPECT_EQ(t.num_cores(), 4);
  EXPECT_TRUE(t.has_smt());
  EXPECT_EQ(t.core(0).smt_sibling, 1);
  EXPECT_EQ(t.core(1).smt_sibling, 0);
  EXPECT_EQ(t.core(2).smt_sibling, 3);
  EXPECT_EQ(t.core(3).smt_sibling, 2);
}

TEST(Topology, ClockScalesApplied) {
  TopologySpec spec;
  spec.cores_per_socket = 2;
  spec.clock_scales = {1.5, 1.0};
  const auto t = Topology::build(spec);
  EXPECT_DOUBLE_EQ(t.core(0).clock_scale, 1.5);
  EXPECT_DOUBLE_EQ(t.core(1).clock_scale, 1.0);
}

TEST(Topology, RejectsBadSpecs) {
  TopologySpec bad;
  bad.cores_per_socket = 0;
  EXPECT_THROW(Topology::build(bad), std::invalid_argument);

  TopologySpec smt;
  smt.smt_per_core = 3;
  EXPECT_THROW(Topology::build(smt), std::invalid_argument);

  TopologySpec group;
  group.cores_per_socket = 4;
  group.cores_per_cache_group = 3;  // Does not divide 4.
  EXPECT_THROW(Topology::build(group), std::invalid_argument);

  TopologySpec scales;
  scales.cores_per_socket = 2;
  scales.clock_scales = {1.0};  // Wrong length.
  EXPECT_THROW(Topology::build(scales), std::invalid_argument);
}

TEST(Topology, CoreIdsAreDenseAndOrdered) {
  TopologySpec spec;
  spec.numa_nodes = 2;
  spec.sockets_per_node = 2;
  spec.cores_per_socket = 2;
  const auto t = Topology::build(spec);
  std::set<CoreId> ids;
  for (const auto& c : t.cores()) ids.insert(c.id);
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), 7);
}

}  // namespace
}  // namespace speedbal
