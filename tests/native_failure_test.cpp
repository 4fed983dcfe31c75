// Failure injection for the native (real OS) layer: malformed /proc and
// /sys content, vanished targets, and hostile inputs. The balancer runs as
// an unprivileged sidecar — it must never take its target down with it.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "native/affinity.hpp"
#include "native/cpu_topology.hpp"
#include "native/procfs.hpp"
#include "native/speed_balancer.hpp"
#include "obs/recorder.hpp"
#include "perturb/fault_injection.hpp"

namespace speedbal::native {
namespace {

namespace fs = std::filesystem;

class TempTree : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("speedbal_fail_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write_file(const fs::path& rel, const std::string& content) {
    fs::create_directories((root_ / rel).parent_path());
    std::ofstream(root_ / rel) << content;
  }

  fs::path root_;
  static int counter_;
};
int TempTree::counter_ = 0;

TEST_F(TempTree, TruncatedStatFileYieldsNullopt) {
  write_file("100/task/101/stat", "101 (x");
  Procfs proc(root_.string());
  EXPECT_FALSE(proc.task_times(100, 101).has_value());
}

TEST_F(TempTree, EmptyStatFileYieldsNullopt) {
  write_file("100/task/101/stat", "");
  Procfs proc(root_.string());
  EXPECT_FALSE(proc.task_times(100, 101).has_value());
}

TEST_F(TempTree, BinaryGarbageStatYieldsNulloptOrParses) {
  write_file("100/task/101/stat", std::string("\x01\x02\x03garbage(((", 14));
  Procfs proc(root_.string());
  // Must not crash; any parse of garbage is acceptable as long as it is
  // well-defined (here: nullopt, since there is no closing paren).
  EXPECT_FALSE(proc.task_times(100, 101).has_value());
}

TEST_F(TempTree, NonNumericTaskDirsIgnored) {
  write_file("100/task/101/stat", "101 (x) R 0 0 0 0 0 0 0 0 0 0 5 5 0 0");
  fs::create_directories(root_ / "100/task/not-a-tid");
  Procfs proc(root_.string());
  EXPECT_EQ(proc.tids(100), (std::vector<pid_t>{101}));
}

TEST_F(TempTree, SysfsGarbageTopologyFilesIgnored) {
  // The balancer reads only NUMA membership; garbage in the files it
  // skips must not break the parse.
  fs::create_directories(root_ / "cpu0/topology");
  fs::create_directories(root_ / "cpu0/cache/index2");
  write_file("cpu0/topology/physical_package_id", "not-a-number");
  write_file("cpu0/topology/thread_siblings_list", "9999-banana");
  write_file("cpu0/cache/index2/shared_cpu_list", "-5,");
  const auto topo = read_sys_topology(root_.string());
  ASSERT_EQ(topo.num_cpus(), 1);
  EXPECT_EQ(topo.cpus[0].numa_node, 0);
}

TEST_F(TempTree, BalancerHandlesThreadVanishingBetweenSteps) {
  constexpr pid_t kPid = 3999900;
  if (::kill(kPid, 0) == 0) GTEST_SKIP();
  write_file("3999900/task/3999901/stat",
             "3999901 (w) R 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
             "0 0 0 0 0 0 0 0 0 0 0 0 0");
  write_file("3999900/task/3999902/stat",
             "3999902 (w) R 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
             "0 0 0 0 0 0 0 0 0 0 0 0 1");
  NativeBalancerConfig config;
  config.cores = CpuSet::parse_list("0-1");
  config.initial_round_robin = false;
  SysTopology topo;
  for (int i = 0; i < 2; ++i) {
    SysCpu cpu;
    cpu.cpu = i;
    topo.cpus.push_back(cpu);
  }
  NativeSpeedBalancer balancer(kPid, config, Procfs(root_.string()), topo);
  EXPECT_EQ(balancer.step(), 0);
  // One thread exits between samples.
  fs::remove_all(root_ / "3999900/task/3999902");
  EXPECT_GE(balancer.step(), 0);
  // The whole process exits.
  fs::remove_all(root_ / "3999900");
  EXPECT_EQ(balancer.step(), -1);
}

TEST_F(TempTree, BalancerDetectsZombieTarget) {
  // Regression: a child that exited but has not been reaped keeps a /proc
  // entry in state Z; the balancer must report it as gone (-1), otherwise
  // `speedbalancer <short-lived-cmd>` deadlocks against its own waitpid.
  constexpr pid_t kPid = 3999905;
  if (::kill(kPid, 0) == 0) GTEST_SKIP();
  write_file("3999905/task/3999905/stat",
             "3999905 (true) Z 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
             "0 0 0 0 0 0 0 0 0 0 0 0 0 0");
  NativeBalancerConfig config;
  config.cores = CpuSet::single(0);
  config.initial_round_robin = false;
  SysTopology topo;
  SysCpu cpu;
  cpu.cpu = 0;
  topo.cpus.push_back(cpu);
  NativeSpeedBalancer balancer(kPid, config, Procfs(root_.string()), topo);
  EXPECT_EQ(balancer.step(), -1);
}

// --- Fault injection: retries, degradation, quarantine ----------------------

TEST(NativeFailure, SetAffinityRetriesTransientInjectedFailures) {
  // Against the calling thread (tid 0) with its real mask: the syscall
  // itself succeeds, so any failure comes from the injector.
  const CpuSet self = get_affinity(0);
  ASSERT_FALSE(self.empty());
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::microseconds(1);

  perturb::FaultInjector inj;
  inj.fail_next(perturb::FaultOp::SetAffinity, 2, EINTR);
  EXPECT_EQ(set_affinity_errno(0, self, retry, &inj), 0);  // 2 retries spent.
  EXPECT_EQ(inj.pending(perturb::FaultOp::SetAffinity), 0);

  inj.fail_next(perturb::FaultOp::SetAffinity, 3, EINTR);
  EXPECT_EQ(set_affinity_errno(0, self, retry, &inj), EINTR);  // Budget spent.

  inj.fail_next(perturb::FaultOp::SetAffinity, 5, EINVAL);
  EXPECT_EQ(set_affinity_errno(0, self, retry, &inj), EINVAL);  // No retry.
  EXPECT_EQ(inj.pending(perturb::FaultOp::SetAffinity), 4);
}

TEST_F(TempTree, ProcfsRetriesInjectedTransientReadFailures) {
  write_file("100/task/101/stat", "101 (x) R 0 0 0 0 0 0 0 0 0 0 5 5 0 0");
  Procfs proc(root_.string());
  perturb::FaultInjector inj;
  proc.set_fault_injector(&inj);
  proc.set_max_read_attempts(3);

  inj.fail_next(perturb::FaultOp::ProcfsRead, 2, EINTR);
  EXPECT_TRUE(proc.task_times(100, 101).has_value());  // Retried through.
  EXPECT_EQ(proc.read_failures(), 0);

  inj.fail_next(perturb::FaultOp::ProcfsRead, 3, EINTR);
  EXPECT_FALSE(proc.task_times(100, 101).has_value());  // Budget spent.
  EXPECT_EQ(proc.read_failures(), 1);

  inj.fail_next(perturb::FaultOp::ProcfsRead, 1, EIO);  // Permanent.
  EXPECT_FALSE(proc.task_times(100, 101).has_value());
  EXPECT_EQ(proc.read_failures(), 2);
}

namespace {
std::string stat_line(pid_t tid, long utime, int cpu) {
  std::string s = std::to_string(tid) + " (w) R";
  for (int i = 1; i <= 36; ++i) {
    long v = 0;
    if (i == 11) v = utime;  // Field 14 of the stat line.
    if (i == 36) v = cpu;    // Field 39: last processor.
    s += ' ' + std::to_string(v);
  }
  return s;
}

SysTopology two_cpu_topo() {
  SysTopology topo;
  for (int i = 0; i < 2; ++i) {
    SysCpu cpu;
    cpu.cpu = i;
    topo.cpus.push_back(cpu);
  }
  return topo;
}
}  // namespace

TEST_F(TempTree, BalancerSkipsPassOnInjectedSampleFailure) {
  // An injected permanent read failure must skip the pass (SampleFailed),
  // not masquerade as the target having exited or as an empty core.
  constexpr pid_t kPid = 3999910;
  if (::kill(kPid, 0) == 0) GTEST_SKIP();
  write_file("3999910/task/3999911/stat", stat_line(3999911, 0, 0));
  write_file("3999910/task/3999912/stat", stat_line(3999912, 0, 1));
  NativeBalancerConfig config;
  config.cores = CpuSet::parse_list("0-1");
  config.initial_round_robin = false;
  perturb::FaultInjector inj;
  config.fault_injector = &inj;
  NativeSpeedBalancer balancer(kPid, config, Procfs(root_.string()),
                               two_cpu_topo());
  obs::RunRecorder rec;
  balancer.set_recorder(&rec);

  EXPECT_EQ(balancer.step(), 0);  // Baseline sample, no failures.
  EXPECT_EQ(balancer.sample_failures(), 0);

  inj.fail_next(perturb::FaultOp::ProcfsRead, 1, EIO);
  EXPECT_EQ(balancer.step(), 0);  // Skipped, not -1: the target is alive.
  EXPECT_EQ(balancer.sample_failures(), 1);
  EXPECT_GE(rec.decisions().count(obs::PullReason::SampleFailed), 1);
}

TEST_F(TempTree, BalancerQuarantinesCoreAfterEinvalPull) {
  // EINVAL from sched_setaffinity means the destination cpu set is invalid
  // — on a live system, that the core was hotplugged out. The balancer must
  // log the failure, quarantine the core, and probe it again only after the
  // configured number of passes.
  constexpr pid_t kPid = 3999915;
  if (::kill(kPid, 0) == 0) GTEST_SKIP();
  write_file("3999915/task/3999916/stat", stat_line(3999916, 0, 0));
  write_file("3999915/task/3999917/stat", stat_line(3999917, 0, 1));
  NativeBalancerConfig config;
  config.cores = CpuSet::parse_list("0-1");
  config.initial_round_robin = false;
  config.block_numa = false;
  config.dead_core_backoff_passes = 2;
  config.affinity_retry.initial_backoff = std::chrono::microseconds(1);
  perturb::FaultInjector inj;
  config.fault_injector = &inj;
  NativeSpeedBalancer balancer(kPid, config, Procfs(root_.string()),
                               two_cpu_topo());
  obs::RunRecorder rec;
  balancer.set_recorder(&rec);

  EXPECT_EQ(balancer.step(), 0);  // Baseline.
  // Thread 3999916 burns CPU on core 0; 3999917 is starved on core 1:
  // core 0 (speed ~1.0) will try to pull the starved thread.
  write_file("3999915/task/3999916/stat", stat_line(3999916, 50, 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  inj.fail_next(perturb::FaultOp::SetAffinity, 5, EINVAL);
  EXPECT_EQ(balancer.step(), 0);  // Pull attempted, failed with EINVAL.
  EXPECT_EQ(balancer.affinity_failures(), 1);
  EXPECT_EQ(balancer.quarantined_cores(), (std::vector<int>{0}));
  EXPECT_GE(rec.decisions().count(obs::PullReason::CoreOffline), 1);
  EXPECT_EQ(balancer.migrations(), 0);

  // The quarantine expires after dead_core_backoff_passes further passes.
  EXPECT_EQ(balancer.step(), 0);
  EXPECT_EQ(balancer.quarantined_cores(), (std::vector<int>{0}));
  EXPECT_EQ(balancer.step(), 0);
  EXPECT_TRUE(balancer.quarantined_cores().empty());
}

TEST(NativeFailure, BalancerOnNonexistentPidExitsCleanly) {
  constexpr pid_t kPid = 3999903;
  if (::kill(kPid, 0) == 0) GTEST_SKIP();
  NativeBalancerConfig config;
  config.startup_delay = std::chrono::milliseconds(1);
  config.interval = std::chrono::milliseconds(1);
  NativeSpeedBalancer balancer(kPid, config);
  balancer.run();  // Must return promptly: the target is already gone.
  EXPECT_EQ(balancer.migrations(), 0);
}

}  // namespace
}  // namespace speedbal::native
