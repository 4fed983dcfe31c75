#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/decision_log.hpp"
#include "obs/speed_timeline.hpp"
#include "util/time.hpp"

namespace speedbal {

/// Hot-potato guard in balance intervals, shared by the simulated and the
/// native balancer: a thread whose last speed-balancer pull moved it from
/// core A to core B cannot be pulled back B -> A for this many balance
/// intervals. The least-migrated victim rule makes ping-pong rare but not
/// impossible (a two-thread tie can alternate); the guard makes the
/// oscillation invariant hold by construction.
inline constexpr int kHotPotatoGuard = 3;

/// A managed thread (sim TaskId or native tid), the core it was measured
/// on, and how often it has migrated.
struct PullThread {
  std::int64_t id;
  int core;
  std::int64_t migrations;
};

/// The constants a pass decides under; times in microseconds.
struct PullLimits {
  double threshold;          ///< T_s.
  SimTime block;             ///< Post-migration block.
  double cache_block_scale;  ///< Block scale for cache-sharing pairs.
  SimTime guard;             ///< Hot-potato window; 0 disables.
};

/// The paper's Section-5 measurement, shared by the simulated and the native
/// speed balancer: a core's speed is the mean speed of the threads measured
/// on it, an empty core counts at its nominal speed, and the global speed is
/// the mean over the present cores. Buffers are indexed by core id and
/// reused across passes; callers own how each thread's speed is measured and
/// which cores are present.
class SpeedAggregate {
 public:
  /// Begin a pass over core ids [0, slots).
  void reset(std::size_t slots) {
    speed_.assign(slots, 0.0);
    count_.assign(slots, 0);
    present_.assign(slots, 0);
    threads_.clear();
  }

  /// A pull candidate that carries no speed this pass.
  void add(const PullThread& t) { threads_.push_back(t); }

  /// A pull candidate and its measured speed, summed into its core.
  void add(const PullThread& t, double speed) {
    threads_.push_back(t);
    if (t.core < 0) return;
    const auto i = static_cast<std::size_t>(t.core);
    speed_[i] += speed;
    ++count_[i];
  }

  /// Close the pass over the managed `cores`: each one `present(c)` takes the
  /// mean of its speeds, or `nominal(c)` when it has none, and the global
  /// speed becomes the mean over present cores, summed in ascending core id.
  /// Returns the number of present cores; with none the global speed keeps
  /// its last value.
  template <class Present, class Nominal>
  int close(const std::vector<int>& cores, Present&& present,
            Nominal&& nominal) {
    int n = 0;
    for (const int c : cores) {
      if (!present(c)) continue;
      const auto i = static_cast<std::size_t>(c);
      speed_[i] = count_[i] == 0
                      ? nominal(c)
                      : speed_[i] / static_cast<double>(count_[i]);
      present_[i] = 1;
      ++n;
    }
    if (n == 0) return 0;
    double sum = 0.0;
    for (std::size_t i = 0; i < present_.size(); ++i)
      if (present_[i] != 0) sum += speed_[i];
    global_ = sum / static_cast<double>(n);
    return n;
  }

  /// The pass's timeline sample: per managed core (in `cores` order) its
  /// speed (0 when absent), `queue_len(c)`, and whether it is below
  /// `threshold` x global.
  template <class QueueLen>
  obs::SpeedSample sample(std::int64_t ts_us, int observer,
                          const std::vector<int>& cores, double threshold,
                          QueueLen&& queue_len) const {
    obs::SpeedSample s;
    s.ts_us = ts_us;
    s.observer = observer;
    s.global = global_;
    s.core_speed.reserve(cores.size());
    for (const int c : cores) {
      const auto i = static_cast<std::size_t>(c);
      const double sp = present_[i] != 0 ? speed_[i] : 0.0;
      s.core_speed.push_back(sp);
      s.queue_len.push_back(queue_len(c));
      s.below_threshold.push_back(global_ > 0.0 && sp / global_ < threshold);
    }
    return s;
  }

  /// Rebook a pulled thread onto core `to`; speeds stay as measured.
  void move_thread(std::int64_t id, int to, std::int64_t migrations) {
    for (PullThread& t : threads_)
      if (t.id == id) t = {id, to, migrations};
  }

  /// Per-core speeds by core id; valid where present() is set.
  const std::vector<double>& speed() const { return speed_; }
  const std::vector<std::uint8_t>& present() const { return present_; }
  const std::vector<PullThread>& threads() const { return threads_; }
  /// Speeds summed into `core` this pass.
  int count(int core) const { return count_[static_cast<std::size_t>(core)]; }
  /// Global speed of the last pass with a present core (0 before any).
  double global() const { return global_; }

 private:
  std::vector<double> speed_;
  std::vector<int> count_;
  std::vector<std::uint8_t> present_;
  std::vector<PullThread> threads_;
  double global_ = 0.0;
};

/// The paper's Section-5 pull rule, shared by the simulated and the native
/// speed balancer. It owns the state that carries across passes (each
/// core's last migration, each thread's last pull); callers own
/// measurement (through SpeedAggregate), caller-specific vetoes and the
/// pull itself.
class PullRule {
 public:
  /// One pass for `base.local`: if it is faster than the global average,
  /// pick the least-migrated thread on the slowest core below T_s x global.
  /// `speed`/`present` are indexed by core id; `veto(c)` returns a reason
  /// to reject candidate `c` or nullopt; `same_cache(a, b)` selects the
  /// scaled block. Every rejection is appended to `log` (null = unrecorded).
  /// Returns the pull to perform, or a record with victim -1.
  template <class Veto, class SameCache>
  obs::DecisionRecord decide(obs::DecisionRecord base,
                             const std::vector<double>& speed,
                             const std::vector<std::uint8_t>& present,
                             const std::vector<PullThread>& threads,
                             SimTime now, const PullLimits& lim, Veto&& veto,
                             SameCache&& same_cache,
                             obs::DecisionLog* log) const {
    // Every outcome but the pull itself is logged here.
    const auto outcome = [&](obs::PullReason reason, int source,
                            double source_speed, std::int64_t victim = -1) {
      obs::DecisionRecord rec = base;
      rec.reason = reason;
      rec.source = source;
      rec.source_speed = source_speed;
      rec.victim = victim;
      if (log != nullptr && reason != obs::PullReason::Pulled) log->add(rec);
      return rec;
    };
    const int local = base.local;
    if (base.local_speed <= base.global)
      return outcome(obs::PullReason::BelowAverage, -1, 0.0);

    // The slowest suitable remote core: below T_s x global, not vetoed, and
    // neither end inside the post-migration block (scaled per pair, since
    // cache-sharing pairs may migrate more often; Section 5.2).
    int source = -1;
    double source_speed = std::numeric_limits<double>::max();
    for (int c = 0; c < static_cast<int>(speed.size()); ++c) {
      const auto i = static_cast<std::size_t>(c);
      if (present[i] == 0 || c == local) continue;
      const double s = speed[i];
      if (s / base.global >= lim.threshold) {
        outcome(obs::PullReason::AboveThreshold, c, s);
        continue;
      }
      if (const std::optional<obs::PullReason> why = veto(c)) {
        outcome(*why, c, s);
        continue;
      }
      SimTime block = lim.block;
      if (same_cache(local, c))
        block = static_cast<SimTime>(static_cast<double>(block) *
                                     lim.cache_block_scale);
      if (involved_within(local, now, block) || involved_within(c, now, block)) {
        outcome(obs::PullReason::MigrationBlocked, c, s);
        continue;
      }
      if (s < source_speed) {
        source_speed = s;
        source = c;
      }
    }
    if (source < 0) return outcome(obs::PullReason::NoCandidate, -1, 0.0);

    // The least-migrated thread on the source (lowest id among ties), never
    // one whose last pull was local -> source inside the guard window.
    const PullThread* victim = nullptr;
    int co_minimal = 0;  // Threads tied at the minimum migration count.
    for (const PullThread& t : threads) {
      if (t.core != source) continue;
      const auto last = lim.guard > 0 ? last_pull_.find(t.id) : last_pull_.end();
      if (last != last_pull_.end() && last->second.from == local &&
          last->second.to == source && now - last->second.at < lim.guard) {
        outcome(obs::PullReason::HotPotato, source, source_speed, t.id);
        continue;
      }
      if (victim == nullptr || t.migrations < victim->migrations) {
        victim = &t;
        co_minimal = 1;
      } else if (t.migrations == victim->migrations) {
        ++co_minimal;
        if (t.id < victim->id) victim = &t;
      }
    }
    if (victim == nullptr)
      return outcome(obs::PullReason::NoVictim, source, source_speed);
    obs::DecisionRecord pull =
        outcome(obs::PullReason::Pulled, source, source_speed, victim->id);
    pull.tie_break = co_minimal > 1;
    return pull;
  }

  /// Book a performed pull of `thread` from core `from` to core `to`.
  void record_pull(int from, int to, std::int64_t thread, SimTime now) {
    const auto need = static_cast<std::size_t>(from > to ? from : to) + 1;
    if (last_involved_.size() < need) last_involved_.resize(need, kNever);
    last_involved_[static_cast<std::size_t>(from)] = now;
    last_involved_[static_cast<std::size_t>(to)] = now;
    last_pull_[thread] = LastPull{from, to, now};
  }

  /// Whether `core` took part in a pull less than `block` before `now`.
  bool involved_within(int core, SimTime now, SimTime block) const {
    const auto i = static_cast<std::size_t>(core);
    return i < last_involved_.size() && last_involved_[i] != kNever &&
           now - last_involved_[i] < block;
  }

 private:
  struct LastPull { int from, to; SimTime at; };
  std::vector<SimTime> last_involved_;  // By core id; kNever = never.
  std::unordered_map<std::int64_t, LastPull> last_pull_;  // By thread id.
};

}  // namespace speedbal
