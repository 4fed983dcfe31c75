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

  void add_cpu(int id, int package, const std::string& thread_siblings,
               const std::string& cache_siblings, int node) {
    const fs::path base = root_ / ("cpu" + std::to_string(id));
    fs::create_directories(base / "topology");
    fs::create_directories(base / "cache/index2");
    std::ofstream(base / "topology/physical_package_id") << package << "\n";
    std::ofstream(base / "topology/thread_siblings_list") << thread_siblings << "\n";
    std::ofstream(base / "cache/index2/shared_cpu_list") << cache_siblings << "\n";
    fs::create_directories(base / ("node" + std::to_string(node)));
  }

  fs::path root_;
  static int counter_;
};
int SysfsFixture::counter_ = 0;

TEST_F(SysfsFixture, ParsesTigertonLikeTree) {
  // 4 CPUs: packages {0,0,1,1}, cache pairs {0-1},{2-3}, one NUMA node.
  add_cpu(0, 0, "0", "0-1", 0);
  add_cpu(1, 0, "1", "0-1", 0);
  add_cpu(2, 1, "2", "2-3", 0);
  add_cpu(3, 1, "3", "2-3", 0);
  const auto topo = read_sys_topology(root_.string());
  ASSERT_EQ(topo.num_cpus(), 4);
  EXPECT_TRUE(topo.same_cache(0, 1));
  EXPECT_FALSE(topo.same_cache(1, 2));
  EXPECT_TRUE(topo.same_numa(0, 3));
}

TEST_F(SysfsFixture, ParsesNumaNodes) {
  add_cpu(0, 0, "0", "0-1", 0);
  add_cpu(1, 0, "1", "0-1", 0);
  add_cpu(2, 1, "2", "2-3", 1);
  add_cpu(3, 1, "3", "2-3", 1);
  const auto topo = read_sys_topology(root_.string());
  EXPECT_TRUE(topo.same_numa(0, 1));
  EXPECT_FALSE(topo.same_numa(1, 2));
  EXPECT_EQ(topo.cpus[2].numa_node, 1);
}

TEST_F(SysfsFixture, SmtSiblings) {
  add_cpu(0, 0, "0-1", "0-3", 0);
  add_cpu(1, 0, "0-1", "0-3", 0);
  add_cpu(2, 0, "2-3", "0-3", 0);
  add_cpu(3, 0, "2-3", "0-3", 0);
  const auto topo = read_sys_topology(root_.string());
  EXPECT_TRUE(topo.cpus[0].thread_siblings.contains(1));
  EXPECT_FALSE(topo.cpus[0].thread_siblings.contains(2));
  EXPECT_TRUE(topo.same_cache(0, 3));
}

TEST_F(SysfsFixture, MissingFilesDegradeGracefully) {
  // Bare cpu directories with no topology files: single package, own cache.
  fs::create_directories(root_ / "cpu0");
  fs::create_directories(root_ / "cpu1");
  const auto topo = read_sys_topology(root_.string());
  ASSERT_EQ(topo.num_cpus(), 2);
  EXPECT_FALSE(topo.same_cache(0, 1));   // Each falls back to itself.
}

TEST_F(SysfsFixture, IgnoresNonCpuEntries) {
  add_cpu(0, 0, "0", "0", 0);
  fs::create_directories(root_ / "cpufreq");
  fs::create_directories(root_ / "cpuidle");
  std::ofstream(root_ / "online") << "0\n";
  const auto topo = read_sys_topology(root_.string());
  EXPECT_EQ(topo.num_cpus(), 1);
}

TEST(SysTopology, RealSysfsParses) {
  const auto topo = read_sys_topology();
  EXPECT_GE(topo.num_cpus(), 1);
  // Every CPU is at least its own sibling in both relations.
  for (const auto& cpu : topo.cpus) {
    EXPECT_TRUE(cpu.thread_siblings.contains(cpu.cpu));
    EXPECT_TRUE(cpu.cache_siblings.contains(cpu.cpu));
  }
}

}  // namespace
}  // namespace speedbal::native
