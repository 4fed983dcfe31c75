#include "native/cpu_topology.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

namespace speedbal::native {
namespace {

namespace fs = std::filesystem;

class SysfsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("speedbal_sys_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void add_cpu(int id, int node) {
    const fs::path base = root_ / ("cpu" + std::to_string(id));
    fs::create_directories(base / ("node" + std::to_string(node)));
  }

  fs::path root_;
  static int counter_;
};
int SysfsFixture::counter_ = 0;

TEST_F(SysfsFixture, ParsesTigertonLikeTree) {
  // 4 CPUs on one NUMA node.
  add_cpu(0, 0);
  add_cpu(1, 0);
  add_cpu(2, 0);
  add_cpu(3, 0);
  const auto topo = read_sys_topology(root_.string());
  ASSERT_EQ(topo.num_cpus(), 4);
  EXPECT_TRUE(topo.same_numa(0, 3));
}

TEST_F(SysfsFixture, ParsesNumaNodes) {
  add_cpu(0, 0);
  add_cpu(1, 0);
  add_cpu(2, 1);
  add_cpu(3, 1);
  const auto topo = read_sys_topology(root_.string());
  EXPECT_TRUE(topo.same_numa(0, 1));
  EXPECT_FALSE(topo.same_numa(1, 2));
  EXPECT_EQ(topo.cpus[2].numa_node, 1);
}

TEST_F(SysfsFixture, MissingFilesDegradeGracefully) {
  // Bare cpu directories with no node entries: one NUMA node.
  fs::create_directories(root_ / "cpu0");
  fs::create_directories(root_ / "cpu1");
  const auto topo = read_sys_topology(root_.string());
  ASSERT_EQ(topo.num_cpus(), 2);
  EXPECT_TRUE(topo.same_numa(0, 1));
  // No tree at all: one CPU on node 0.
  const auto none = read_sys_topology((root_ / "absent").string());
  ASSERT_EQ(none.num_cpus(), 1);
  EXPECT_EQ(none.cpus[0].cpu, 0);
  EXPECT_EQ(none.cpus[0].numa_node, 0);
}

TEST_F(SysfsFixture, IgnoresNonCpuEntries) {
  add_cpu(0, 0);
  fs::create_directories(root_ / "cpufreq");
  fs::create_directories(root_ / "cpuidle");
  std::ofstream(root_ / "online") << "0\n";
  const auto topo = read_sys_topology(root_.string());
  EXPECT_EQ(topo.num_cpus(), 1);
}

TEST(SysTopology, RealSysfsParses) {
  const auto topo = read_sys_topology();
  EXPECT_GE(topo.num_cpus(), 1);
  for (const auto& cpu : topo.cpus) {
    EXPECT_GE(cpu.cpu, 0);
    EXPECT_GE(cpu.numa_node, 0);
  }
}

}  // namespace
}  // namespace speedbal::native
