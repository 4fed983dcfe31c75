#include "native/speed_balancer.hpp"

#include <algorithm>
#include <cerrno>
#include <optional>

#include "util/log.hpp"

namespace speedbal::native {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

NativeSpeedBalancer::NativeSpeedBalancer(pid_t target,
                                         NativeBalancerConfig config,
                                         Procfs procfs, SysTopology topo)
    : target_(target),
      config_(std::move(config)),
      procfs_(std::move(procfs)),
      topo_(std::move(topo)),
      rng_(config_.seed) {
  procfs_.set_fault_injector(config_.fault_injector);
  if (config_.cores.empty()) {
    for (int c = 0; c < online_cpus() && c < 64; ++c) cores_.push_back(c);
  } else {
    cores_ = config_.cores.cpus();
  }
}

void NativeSpeedBalancer::set_recorder(obs::RunRecorder* rec) {
  recorder_ = rec;
  trace_origin_ = Clock::now();
  if (rec != nullptr) rec->set_cores(cores_);
}

std::vector<int> NativeSpeedBalancer::quarantined_cores() const {
  std::vector<int> out;
  for (const auto& [c, until] : dead_until_)
    if (pass_count_ < until) out.push_back(c);
  return out;
}

void NativeSpeedBalancer::pin_round_robin() {
  const auto tids = procfs_.tids(target_);
  std::size_t i = 0;
  for (pid_t tid : tids) {
    const bool inserted = tids_.emplace(tid, TidState{}).second;
    if (inserted && config_.initial_round_robin) {
      const int err =
          set_affinity_errno(tid, CpuSet::single(cores_[i % cores_.size()]),
                             config_.affinity_retry, config_.fault_injector);
      if (err != 0 && err != ESRCH) ++affinity_failures_;
    }
    ++i;
  }
}

bool NativeSpeedBalancer::measure() {
  const std::int64_t fails_before = procfs_.read_failures();
  const auto samples = procfs_.all_task_times(target_);
  const auto now = Clock::now();
  if (procfs_.read_failures() > fails_before) {
    // The sweep was incomplete (stat reads failed past the retry budget):
    // balancing on partial speeds would mistake unread threads for absent
    // ones. Skip the pass; last_ticks stay put so the next delta is exact.
    ++sample_failures_;
    return false;
  }
  if (samples.empty()) return false;

  const double hz = static_cast<double>(Procfs::ticks_per_second());
  const double wall = have_sample_ ? seconds_between(last_sample_, now) : 0.0;
  const bool ready = have_sample_;
  if (ready) speeds_.reset(static_cast<std::size_t>(cores_.back()) + 1);
  for (const auto& s : samples) {
    auto& st = tids_[s.tid];
    // Threads on CPUs outside the managed set (cores_, ascending) are
    // neither measured nor pullable.
    if (ready && wall > 0.0 &&
        std::binary_search(cores_.begin(), cores_.end(), s.cpu)) {
      const double cpu_s = static_cast<double>(s.total_ticks() - st.last_ticks) / hz;
      speeds_.add({s.tid, s.cpu, st.migrations},
                  std::clamp(cpu_s / wall, 0.0, 1.0));
    }
    st.last_ticks = s.total_ticks();
  }
  last_sample_ = now;
  have_sample_ = true;
  if (!ready) return false;

  // Every managed core is present; an empty one offers full speed to
  // anything migrated there.
  speeds_.close(cores_, [](int) { return true; }, [](int) { return 1.0; });
  return true;
}

int NativeSpeedBalancer::step() {
  ++pass_count_;
  if (!procfs_.alive(target_)) return -1;
  const std::int64_t ts_us =
      recorder_ == nullptr
          ? 0
          : std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                  trace_origin_)
                .count();
  obs::DecisionLog* log =
      recorder_ != nullptr ? &recorder_->decisions() : nullptr;
  const auto log_sample_failed = [&] {
    if (log == nullptr) return;
    obs::DecisionRecord rec;
    rec.ts_us = ts_us;
    rec.reason = obs::PullReason::SampleFailed;
    log->add(rec);
  };
  // A target that exited but has not been reaped yet keeps its /proc entry
  // as a zombie; treat an all-zombie (or thread-less) process as exited, or
  // the balancer would spin forever waiting for its own caller's waitpid.
  {
    const std::int64_t fails_before = procfs_.read_failures();
    const auto samples = procfs_.all_task_times(target_);
    if (procfs_.read_failures() > fails_before) {
      // Incomplete probe: do NOT mistake unreadable threads for a dead
      // target — skip the pass and try again next interval.
      ++sample_failures_;
      log_sample_failed();
      return 0;
    }
    bool any_live = false;
    for (const auto& s : samples)
      if (s.state != 'Z' && s.state != 'X') {
        any_live = true;
        break;
      }
    if (!any_live) return -1;
  }
  pin_round_robin();  // Pick up dynamically spawned threads.

  const std::int64_t sample_fails_before = sample_failures_;
  if (!measure()) {
    if (sample_failures_ > sample_fails_before) log_sample_failed();
    return 0;
  }

  const double global = speeds_.global();
  std::int64_t sample_seq = -1;
  if (recorder_ != nullptr) {
    // Observer -1: a sequential sweep, not a per-core balancer. A core's
    // queue length is its measured thread count.
    sample_seq = recorder_->timeline().add(
        speeds_.sample(ts_us, /*observer=*/-1, cores_, config_.threshold,
                       [&](int c) { return speeds_.count(c); }));
  }
  if (global <= 0.0) return 0;

  const SimTime now = std::chrono::duration_cast<std::chrono::microseconds>(
                          Clock::now().time_since_epoch())
                          .count();
  const SimTime interval_us = config_.interval.count() * kMsec;
  const PullLimits limits{config_.threshold,
                          config_.post_migration_block * interval_us,
                          /*cache_block_scale=*/1.0,
                          kHotPotatoGuard * interval_us};

  // Per-core balancer passes in random order (the distributed balancers of
  // the paper wake with random jitter; order is the only difference).
  std::vector<int> order = cores_;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng_.uniform_u64(i)]);

  // Graceful degradation: a core whose pulls failed with EINVAL has been
  // hotplugged out from under us; quarantine it for a few passes instead of
  // hammering a dead destination every interval.
  const auto quarantined = [&](int c) {
    const auto it = dead_until_.find(c);
    return it != dead_until_.end() && pass_count_ < it->second;
  };

  int moved = 0;
  for (int local : order) {
    obs::DecisionRecord pull;
    pull.ts_us = ts_us;
    pull.local = local;
    pull.local_speed = speeds_.speed()[static_cast<std::size_t>(local)];
    pull.global = global;
    pull.sample_seq = sample_seq;
    const auto log_outcome = [&](obs::PullReason reason) {
      pull.reason = reason;
      if (log != nullptr) log->add(pull);
    };
    if (quarantined(local)) {
      log_outcome(obs::PullReason::CoreOffline);
      continue;
    }
    const auto veto = [&](int c) -> std::optional<obs::PullReason> {
      if (quarantined(c)) return obs::PullReason::CoreOffline;
      if (config_.block_numa && c < topo_.num_cpus() &&
          local < topo_.num_cpus() && !topo_.same_numa(local, c))
        return obs::PullReason::NumaBlocked;
      return std::nullopt;
    };
    pull = rule_.decide(pull, speeds_.speed(), speeds_.present(),
                        speeds_.threads(), now, limits, veto,
                        [](int, int) { return false; }, log);
    if (pull.victim < 0) continue;

    const auto victim = static_cast<pid_t>(pull.victim);
    const int err = set_affinity_errno(victim, CpuSet::single(local),
                                       config_.affinity_retry,
                                       config_.fault_injector);
    if (err == ESRCH) continue;  // Tid raced away; not a failure.
    if (err != 0) {
      ++affinity_failures_;
      pull.tie_break = false;
      if (err == EINVAL) {
        // The destination core vanished (hotplug): every pull into it would
        // fail the same way, so quarantine it instead of retrying blindly.
        dead_until_[local] = pass_count_ + config_.dead_core_backoff_passes;
        log_outcome(obs::PullReason::CoreOffline);
        if (recorder_ != nullptr) recorder_->incr("affinity.einval");
      } else {
        log_outcome(obs::PullReason::AffinityFailed);
        if (recorder_ != nullptr) recorder_->incr("affinity.failed");
      }
      continue;
    }
    dead_until_.erase(local);  // A successful pull proves the core is back.
    ++tids_[victim].migrations;
    ++migrations_;
    ++moved;
    rule_.record_pull(pull.source, local, victim, now);
    speeds_.move_thread(victim, local, tids_[victim].migrations);
    log_outcome(obs::PullReason::Pulled);
    if (recorder_ != nullptr) {
      recorder_->migrations().add({ts_us, victim, pull.source, local,
                                   obs::MigrationCause::SpeedBalancer});
      recorder_->incr("migrations.speed");
    }
    SB_LOG(Debug) << "native speedbalancer: tid " << victim << " core "
                  << pull.source << " -> " << local;
  }
  return moved;
}

void NativeSpeedBalancer::run() {
  std::this_thread::sleep_for(config_.startup_delay);
  pin_round_robin();
  while (!stopping_.load(std::memory_order_relaxed)) {
    const auto jitter = std::chrono::milliseconds(
        rng_.uniform_u64(static_cast<std::uint64_t>(config_.interval.count()) + 1));
    std::this_thread::sleep_for(config_.interval + jitter);
    if (step() < 0) break;  // Target exited.
  }
}

void NativeSpeedBalancer::start() {
  stopping_.store(false);
  worker_ = std::thread([this] { run(); });
}

void NativeSpeedBalancer::stop() {
  stopping_.store(true);
  if (worker_.joinable()) worker_.join();
}

}  // namespace speedbal::native
