#include "native/speed_balancer.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "check/invariants.hpp"
#include "obs/recorder.hpp"
#include "util/json.hpp"

namespace speedbal::native {
namespace {

namespace fs = std::filesystem;

std::string stat_line(pid_t tid, long utime, int cpu) {
  std::string line = std::to_string(tid) + " (w) R";
  for (int i = 0; i < 10; ++i) line += " 0";
  line += " " + std::to_string(utime) + " 0";
  for (int i = 0; i < 23; ++i) line += " 0";
  line += " " + std::to_string(cpu);
  for (int i = 0; i < 5; ++i) line += " 0";
  return line;
}

/// Synthetic /proc tree driving the balancer's measurement logic with
/// controlled utime deltas. Tids are chosen to be (almost certainly)
/// nonexistent so sched_setaffinity attempts fail harmlessly.
class FakeProc {
 public:
  FakeProc() {
    root_ = fs::temp_directory_path() /
            ("speedbal_bal_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  ~FakeProc() { fs::remove_all(root_); }

  void set_thread(pid_t pid, pid_t tid, long utime, int cpu) {
    const fs::path dir = root_ / std::to_string(pid) / "task" / std::to_string(tid);
    fs::create_directories(dir);
    std::ofstream(dir / "stat") << stat_line(tid, utime, cpu) << "\n";
  }

  void remove(pid_t pid) { fs::remove_all(root_ / std::to_string(pid)); }

  std::string root() const { return root_.string(); }

 private:
  fs::path root_;
  static int counter_;
};
int FakeProc::counter_ = 0;

SysTopology two_cpu_topology() {
  SysTopology topo;
  for (int i = 0; i < 2; ++i) {
    SysCpu cpu;
    cpu.cpu = i;
    cpu.numa_node = 0;
    topo.cpus.push_back(cpu);
  }
  return topo;
}

constexpr pid_t kPid = 3999900;
constexpr pid_t kTidA = 3999901;
constexpr pid_t kTidB = 3999902;

bool improbable_pids_free() {
  return ::kill(kPid, 0) != 0 && ::kill(kTidA, 0) != 0 && ::kill(kTidB, 0) != 0;
}

NativeBalancerConfig test_config() {
  NativeBalancerConfig config;
  config.cores = CpuSet::parse_list("0-1");
  config.initial_round_robin = false;  // Tids are fake; do not pin.
  config.interval = std::chrono::milliseconds(1);
  return config;
}

TEST(NativeSpeedBalancer, MeasuresPerCoreSpeeds) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  EXPECT_EQ(balancer.step(), 0);  // First pass: snapshot only.

  // Thread A consumed far more CPU than wall time (clamped to 1.0); thread
  // B consumed none.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  proc.set_thread(kPid, kTidA, 100 * hz, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  balancer.step();
  ASSERT_EQ(balancer.core_speeds().size(), 2u);
  EXPECT_NEAR(balancer.core_speeds().at(0), 1.0, 1e-9);
  EXPECT_NEAR(balancer.core_speeds().at(1), 0.0, 1e-9);
  EXPECT_NEAR(balancer.global_speed(), 0.5, 1e-9);
}

TEST(NativeSpeedBalancer, EmptyCoreReportsFullSpeed) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  proc.set_thread(kPid, kTidA, 0, 0);  // Both threads on CPU 0.
  proc.set_thread(kPid, kTidB, 0, 0);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  balancer.step();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, hz, 0);
  proc.set_thread(kPid, kTidB, hz, 0);
  balancer.step();
  // CPU 1 hosts no threads: attractive at full nominal speed.
  EXPECT_NEAR(balancer.core_speeds().at(1), 1.0, 1e-9);
}

TEST(NativeSpeedBalancer, ReportsTargetExit) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  proc.set_thread(kPid, kTidA, 0, 0);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  EXPECT_EQ(balancer.step(), 0);
  proc.remove(kPid);
  EXPECT_EQ(balancer.step(), -1);
}

TEST(NativeSpeedBalancer, MigrationAttemptOnFakeTidsFailsSafely) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  balancer.step();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  proc.set_thread(kPid, kTidA, 100 * hz, 0);  // CPU0 fast, CPU1 slow.
  proc.set_thread(kPid, kTidB, 0, 1);
  // A pull from CPU 1 is warranted, but sched_setaffinity on a fake tid
  // fails; the balancer must carry on without counting a migration.
  EXPECT_EQ(balancer.step(), 0);
  EXPECT_EQ(balancer.migrations(), 0);
}

TEST(NativeSpeedBalancer, RecorderCapturesTimelineAndDecisions) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  obs::RunRecorder rec;
  balancer.set_recorder(&rec);
  balancer.step();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  proc.set_thread(kPid, kTidA, 100 * hz, 0);  // CPU0 fast, CPU1 slow.
  proc.set_thread(kPid, kTidB, 0, 1);
  balancer.step();

  // Every step after the first snapshot records one speed sample from the
  // centralized sweep, and the imbalance produces decision-log entries.
  EXPECT_GE(rec.timeline().size(), 1u);
  EXPECT_GT(rec.decisions().size(), 0u);
  const auto sample = rec.timeline().snapshot().back();
  EXPECT_EQ(sample.observer, -1);
  ASSERT_EQ(sample.core_speed.size(), 2u);
  EXPECT_NEAR(sample.core_speed[0], 1.0, 1e-9);
  // Each CPU's queue length is its measured thread count; the idle CPU1 is
  // the one below T_s x global, global being the mean of 1.0 and 0.0.
  EXPECT_EQ(sample.queue_len, (std::vector<int>{1, 1}));
  EXPECT_EQ(sample.below_threshold, (std::vector<bool>{false, true}));
  EXPECT_NEAR(sample.global, 0.5, 1e-9);

  // Both exports must be valid JSON with native data in them.
  std::ostringstream trace_os, report_os;
  rec.write_chrome_trace(trace_os);
  rec.write_report_json(report_os);
  const auto trace = JsonValue::parse(trace_os.str());
  EXPECT_GT(trace.at("traceEvents").size(), 0u);
  const auto report = JsonValue::parse(report_os.str());
  EXPECT_GE(report.at("global_speed").at("samples").as_int(), 1);
}

TEST(NativeSpeedBalancer, RecorderSafeAcrossThreads) {
  // TSan coverage: the balancer steps on a worker thread (as run() does)
  // while the main thread reads counters and snapshots, mirroring the CLI
  // exporting after join. All synchronization lives inside the recorder.
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  obs::RunRecorder rec;
  balancer.set_recorder(&rec);

  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (int i = 0; i < 20; ++i) {
      proc.set_thread(kPid, kTidA, (i + 1) * 10 * hz, 0);
      proc.set_thread(kPid, kTidB, 0, 1);
      if (balancer.step() < 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
  });
  std::size_t reads = 0;
  while (!done.load()) {
    (void)rec.counters();
    (void)rec.timeline().snapshot();
    (void)rec.decisions().counts();
    ++reads;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.join();
  EXPECT_GT(reads, 0u);
  EXPECT_GE(rec.timeline().size(), 1u);
}

TEST(NativeSpeedBalancer, ThreadsOutsideManagedCpusAreIgnored) {
  // Dense per-CPU arrays span the managed CPUs only: a thread the fixture
  // reports on CPU 5 must not be measured, counted or offered as a victim.
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 5);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  obs::RunRecorder rec;
  balancer.set_recorder(&rec);
  balancer.step();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 100 * hz, 5);
  EXPECT_EQ(balancer.step(), 0);
  ASSERT_EQ(balancer.core_speeds().size(), 2u);
  EXPECT_NEAR(balancer.core_speeds().at(0), 0.0, 1e-9);
  EXPECT_NEAR(balancer.core_speeds().at(1), 1.0, 1e-9);  // Empty.
  EXPECT_NEAR(balancer.global_speed(), 0.5, 1e-9);
  const auto sample = rec.timeline().snapshot().back();
  EXPECT_EQ(sample.queue_len, (std::vector<int>{1, 0}));
  for (const obs::DecisionRecord& d : rec.decisions().snapshot())
    EXPECT_NE(d.victim, kTidB);
}

/// A parked helper thread of this process: a real tid that
/// sched_setaffinity accepts, whose CPU time the fixture reports.
class ParkedThread {
 public:
  ParkedThread() {
    std::promise<pid_t> tid;
    std::future<pid_t> got = tid.get_future();
    worker_ = std::thread([this, &tid] {
      tid.set_value(static_cast<pid_t>(::syscall(SYS_gettid)));
      release_.get_future().wait();
    });
    tid_ = got.get();
  }
  ~ParkedThread() {
    release_.set_value();
    worker_.join();
  }
  pid_t tid() const { return tid_; }

 private:
  std::promise<void> release_;
  std::thread worker_;
  pid_t tid_ = -1;
};

/// One NUMA node holding CPUs 0..n-1.
SysTopology flat_topology(int n) {
  SysTopology topo;
  for (int i = 0; i < n; ++i) {
    SysCpu cpu;
    cpu.cpu = i;
    topo.cpus.push_back(cpu);
  }
  return topo;
}

/// Run the simulator's post-hoc Section-5 checkers (threshold, cooldown,
/// speed-accounting, oscillation) over a native decision log, with the
/// migrations rebuilt from its Pulled records.
void expect_section5_rules_hold(const obs::RunRecorder& rec,
                                const NativeBalancerConfig& config) {
  check::SpeedRuleInputs in;
  in.threshold = config.threshold;
  in.interval = config.interval.count() * kMsec;
  in.post_migration_block = config.post_migration_block;
  in.block_numa = config.block_numa;
  in.decisions = rec.decisions().snapshot();
  for (const obs::DecisionRecord& d : in.decisions)
    if (d.reason == obs::PullReason::Pulled)
      in.migrations.push_back({d.ts_us, static_cast<TaskId>(d.victim),
                               d.source, d.local,
                               MigrationCause::SpeedBalancer});
  EXPECT_FALSE(in.migrations.empty());
  std::vector<check::Violation> out;
  check::check_speed_rules(in, out);
  check::TuningRuleInputs tin;
  tin.interval = in.interval;
  tin.hot_potato_guard = kHotPotatoGuard;
  tin.migrations = in.migrations;
  check::check_oscillation(tin, out);
  EXPECT_TRUE(out.empty()) << check::format_violations(out);
}

/// Two CPUs this process may run on, or none. The parity fixtures pull a
/// real thread, so both must accept it.
std::vector<int> two_allowed_cpus() {
  const std::vector<int> cpus = get_affinity(0).cpus();
  if (cpus.size() < 2) return {};
  return {cpus[0], cpus[1]};
}

/// Parity fixture: one real thread `x` that makes no progress, first on CPU
/// a while b is empty (so b pulls x from a), then on b while a is empty (so
/// a is fast and b slow: the reverse pull's state).
struct PullBack {
  explicit PullBack(int post_migration_block) {
    config = test_config();
    config.cores = CpuSet::single(cpus[0]);
    config.cores.add(cpus[1]);
    config.interval = std::chrono::milliseconds(1000);
    config.post_migration_block = post_migration_block;
  }
  int pull_then_reverse(obs::RunRecorder& rec) {
    const int a = cpus[0], b = cpus[1];
    proc.set_thread(kPid, x.tid(), 0, a);
    NativeSpeedBalancer balancer(kPid, config, Procfs(proc.root()),
                                 flat_topology(b + 1));
    balancer.set_recorder(&rec);
    balancer.step();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    proc.set_thread(kPid, x.tid(), 0, a);
    EXPECT_EQ(balancer.step(), 1);  // b pulls x from a.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    proc.set_thread(kPid, x.tid(), 0, b);
    const int moved = balancer.step();
    migrations = balancer.migrations();
    return moved;
  }

  std::vector<int> cpus = two_allowed_cpus();
  FakeProc proc;
  ParkedThread x;
  NativeBalancerConfig config;
  std::int64_t migrations = 0;
};

TEST(NativeSpeedBalancer, BlockedLocalCoreLogsMigrationBlockedPerCandidate) {
  if (!improbable_pids_free() || two_allowed_cpus().empty()) GTEST_SKIP();
  PullBack fx(/*post_migration_block=*/2);
  obs::RunRecorder rec;
  // a is fast but inside its post-migration block: like the simulator, the
  // rule rejects the slow candidate b as migration-blocked.
  EXPECT_EQ(fx.pull_then_reverse(rec), 0);
  const auto counts = rec.decisions().counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::PullReason::MigrationBlocked)], 1);
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::PullReason::LocalBlocked)], 0);
  for (const obs::DecisionRecord& d : rec.decisions().snapshot())
    if (d.reason == obs::PullReason::MigrationBlocked) {
      EXPECT_EQ(d.local, fx.cpus[0]);
      EXPECT_EQ(d.source, fx.cpus[1]);
    }
  expect_section5_rules_hold(rec, fx.config);
}

TEST(NativeSpeedBalancer, HotPotatoGuardStopsThePullBack) {
  if (!improbable_pids_free() || two_allowed_cpus().empty()) GTEST_SKIP();
  PullBack fx(/*post_migration_block=*/0);
  obs::RunRecorder rec;
  // No block, so only the guard stops a from pulling x straight back from
  // b within kHotPotatoGuard intervals.
  EXPECT_EQ(fx.pull_then_reverse(rec), 0);
  EXPECT_EQ(fx.migrations, 1);
  const auto counts = rec.decisions().counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::PullReason::HotPotato)], 1);
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::PullReason::NoVictim)], 1);
  for (const obs::DecisionRecord& d : rec.decisions().snapshot()) {
    if (d.reason == obs::PullReason::HotPotato) {
      EXPECT_EQ(d.victim, fx.x.tid());
    }
  }
  expect_section5_rules_hold(rec, fx.config);
}

TEST(NativeSpeedBalancer, PullsReachTheMigrationLogAndTheTrace) {
  if (!improbable_pids_free() || two_allowed_cpus().empty()) GTEST_SKIP();
  PullBack fx(/*post_migration_block=*/0);
  obs::RunRecorder rec;
  fx.pull_then_reverse(rec);
  const std::int64_t pulled =
      rec.decisions().count(obs::PullReason::Pulled);
  EXPECT_EQ(pulled, 1);

  std::ostringstream trace_os, report_os;
  rec.write_chrome_trace(trace_os);
  rec.write_report_json(report_os);
  const auto report = JsonValue::parse(report_os.str());
  const auto& migrations = report.at("migrations");
  ASSERT_EQ(static_cast<std::int64_t>(migrations.size()), pulled);
  for (const JsonValue& m : migrations.items()) {
    EXPECT_EQ(m.at("cause").as_string(), "speed");
    EXPECT_EQ(m.at("task").as_int(), fx.x.tid());
  }
  const auto trace = JsonValue::parse(trace_os.str());
  const auto& events = trace.at("traceEvents");
  std::int64_t instants = 0;
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].at("ph").as_string() == "i" &&
        events[i].at("name").as_string() == "migration")
      ++instants;
  EXPECT_EQ(instants, pulled);
}

TEST(NativeSpeedBalancer, BalancesRealSelfWithoutCrashing) {
  // Smoke test on the live process: measurement over real /proc; with a
  // single online CPU no migration targets exist, which must be handled.
  NativeBalancerConfig config;
  config.interval = std::chrono::milliseconds(10);
  config.initial_round_robin = false;  // Do not disturb the test runner.
  NativeSpeedBalancer balancer(::getpid(), config);
  EXPECT_GE(balancer.step(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(balancer.step(), 0);
  EXPECT_FALSE(balancer.core_speeds().empty());
}

}  // namespace
}  // namespace speedbal::native
