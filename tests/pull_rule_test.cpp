// The shared Section-5 pull rule on its own: one table of forged passes,
// each checked for the logged rejections (in order) and the returned pull;
// then the shared measurement (SpeedAggregate) fed the simulated and the
// native balancer's inputs.
// It lives in native_test next to the native balancer, whose library
// (speedbal_native) uses the header without linking the simulator; both
// sanitizer legs of scripts/check.sh run this binary.

#include "balance/pull_rule.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace speedbal {
namespace {

struct PastPull {
  int from;
  int to;
  std::int64_t thread;
  SimTime at;
};

struct Case {
  const char* name = "";
  /// Per-core speeds; a negative entry marks a core that is not present.
  std::vector<double> speed = {};
  std::vector<PullThread> threads = {};
  std::vector<PastPull> history = {};
  SimTime now = msec(1000);
  PullLimits limits{0.9, msec(200), 1.0, msec(300)};
  std::map<int, obs::PullReason> vetoes = {};
  std::set<std::pair<int, int>> cache_pairs = {};
  /// Logged records as "reason[@source][#victim]", space separated.
  std::string want_log = "";
  /// The returned pull as "@source #victim[ tie]", or "-" for none.
  std::string want = "-";
};

std::string render(const obs::DecisionRecord& d) {
  std::string s = obs::to_string(d.reason);
  if (d.source >= 0) s += "@" + std::to_string(d.source);
  if (d.victim >= 0) s += "#" + std::to_string(d.victim);
  return s;
}

TEST(PullRule, DecisionTable) {
  using R = obs::PullReason;
  // Core 0 is always the local core. With speeds {1.0, x, ...} the global
  // average is the mean over present cores.
  const std::vector<Case> cases = {
      {.name = "local not faster than average",
       .speed = {0.5, 1.0, 0.5},
       .want_log = "below-average",
       .want = "-"},
      {.name = "candidate at T_s x global is above threshold",
       .speed = {1.0, 0.6, 1.1},  // global 0.9: 0.6/0.9 < T_s, 1.1 is not.
       .threads = {{7, 1, 0}},
       .want_log = "above-threshold@2",
       .want = "@1 #7"},
      {.name = "slowest candidate wins, lowest core id among equals",
       .speed = {1.0, 0.4, 0.2, 0.2, 1.2},
       .threads = {{5, 2, 0}, {6, 3, 0}},
       .want_log = "above-threshold@4",
       .want = "@2 #5"},
      {.name = "absent cores are skipped",
       .speed = {1.0, -1.0, 0.2},
       .threads = {{5, 2, 0}},
       .want = "@2 #5"},
      {.name = "veto reasons are logged as given",
       .speed = {1.0, 0.2, 0.3},
       .threads = {{5, 2, 0}},
       .vetoes = {{1, R::NumaBlocked}},
       .want_log = "numa-blocked@1",
       .want = "@2 #5"},
      {.name = "threshold is checked before veto and block",
       .speed = {1.0, 1.0, 0.1},
       .threads = {{5, 2, 0}},
       .history = {{1, 3, 9, msec(900)}},
       .vetoes = {{1, R::CoreOffline}, {2, R::DomainBlocked}},
       .want_log = "above-threshold@1 domain-blocked@2 no-candidate",
       .want = "-"},
      {.name = "veto is checked before the block",
       .speed = {1.0, 0.1, 0.1},
       .history = {{1, 2, 9, msec(900)}},
       .vetoes = {{1, R::CoreOffline}},
       .want_log = "core-offline@1 migration-blocked@2 no-candidate",
       .want = "-"},
      {.name = "blocked local core blocks every candidate",
       .speed = {1.0, 0.1, 0.2},
       .history = {{3, 0, 9, msec(850)}},
       .want_log = "migration-blocked@1 migration-blocked@2 no-candidate",
       .want = "-"},
      {.name = "block expires after its length",
       .speed = {1.0, 0.1},
       .threads = {{5, 1, 0}},
       .history = {{1, 3, 9, msec(800)}},
       .want = "@1 #5"},
      {.name = "cache-sharing pair uses the scaled block",
       .speed = {1.0, 0.1, 0.1},
       .threads = {{5, 1, 0}},
       .history = {{1, 2, 9, msec(900)}},
       .limits = {0.9, msec(200), 0.5, msec(300)},
       .cache_pairs = {{0, 1}},
       .want_log = "migration-blocked@2",
       .want = "@1 #5"},
      {.name = "source holds no thread",
       .speed = {1.0, 0.1},
       .threads = {{5, 0, 0}},
       .want_log = "no-victim@1",
       .want = "-"},
      {.name = "reverse pull inside the guard is hot-potato",
       .speed = {1.0, 0.1},
       .threads = {{5, 1, 0}},
       .history = {{0, 1, 5, msec(750)}},
       .limits = {0.9, 0, 1.0, msec(300)},
       .want_log = "hot-potato@1#5 no-victim@1",
       .want = "-"},
      {.name = "guard is directional",
       .speed = {1.0, 0.1},
       .threads = {{5, 1, 0}},
       .history = {{1, 0, 5, msec(750)}},
       .limits = {0.9, 0, 1.0, msec(300)},
       .want = "@1 #5"},
      {.name = "guard expires after its window",
       .speed = {1.0, 0.1},
       .threads = {{5, 1, 0}},
       .history = {{0, 1, 5, msec(700)}},
       .limits = {0.9, 0, 1.0, msec(300)},
       .want = "@1 #5"},
      {.name = "guard 0 disables the hot-potato check",
       .speed = {1.0, 0.1},
       .threads = {{5, 1, 0}},
       .history = {{0, 1, 5, msec(999)}},
       .limits = {0.9, 0, 1.0, 0},
       .want = "@1 #5"},
      {.name = "guarded thread is skipped for the next least-migrated",
       .speed = {1.0, 0.1},
       .threads = {{5, 1, 0}, {6, 1, 4}},
       .history = {{0, 1, 5, msec(900)}},
       .limits = {0.9, 0, 1.0, msec(300)},
       .want_log = "hot-potato@1#5",
       .want = "@1 #6"},
      {.name = "least-migrated thread, no tie",
       .speed = {1.0, 0.1},
       .threads = {{3, 1, 2}, {8, 1, 1}, {4, 0, 0}},
       .want = "@1 #8"},
      {.name = "lowest id breaks a tie at the minimum",
       .speed = {1.0, 0.1},
       .threads = {{9, 1, 2}, {8, 1, 1}, {3, 1, 1}},
       .want = "@1 #3 tie"},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<double> speed;
    std::vector<std::uint8_t> present;
    double global = 0.0;
    int n = 0;
    for (const double s : c.speed) {
      speed.push_back(s < 0.0 ? 0.0 : s);
      present.push_back(s < 0.0 ? 0 : 1);
      if (s >= 0.0) {
        global += s;
        ++n;
      }
    }
    global /= n;

    PullRule rule;
    for (const PastPull& p : c.history)
      rule.record_pull(p.from, p.to, p.thread, p.at);
    obs::DecisionRecord base;
    base.ts_us = c.now;
    base.local = 0;
    base.local_speed = speed[0];
    base.global = global;
    base.sample_seq = 42;
    const auto veto = [&](int core) -> std::optional<obs::PullReason> {
      const auto it = c.vetoes.find(core);
      if (it == c.vetoes.end()) return std::nullopt;
      return it->second;
    };
    const auto same_cache = [&](int a, int b) {
      return c.cache_pairs.count({a, b}) + c.cache_pairs.count({b, a}) > 0;
    };

    obs::DecisionLog log;
    const obs::DecisionRecord pull = rule.decide(
        base, speed, present, c.threads, c.now, c.limits, veto, same_cache,
        &log);
    std::string got_log;
    for (const obs::DecisionRecord& d : log.snapshot()) {
      got_log += (got_log.empty() ? "" : " ") + render(d);
      EXPECT_EQ(d.local, 0);
      EXPECT_EQ(d.global, global);
      EXPECT_EQ(d.sample_seq, 42);
      EXPECT_NE(d.reason, R::Pulled);
    }
    EXPECT_EQ(got_log, c.want_log);
    std::string got = "-";
    if (pull.victim >= 0) {
      EXPECT_EQ(pull.reason, R::Pulled);
      got = "@" + std::to_string(pull.source) + " #" +
            std::to_string(pull.victim) + (pull.tie_break ? " tie" : "");
    }
    EXPECT_EQ(got, c.want);

    // Unrecorded: the same decision, nothing logged anywhere.
    const obs::DecisionRecord bare = rule.decide(
        base, speed, present, c.threads, c.now, c.limits, veto, same_cache,
        nullptr);
    EXPECT_EQ(bare.victim, pull.victim);
    EXPECT_EQ(bare.source, pull.source);
  }
}

TEST(PullRule, RecordPullBooksBothEndsAndTheThread) {
  PullRule rule;
  EXPECT_FALSE(rule.involved_within(3, 0, msec(200)));
  rule.record_pull(/*from=*/5, /*to=*/2, /*thread=*/11, msec(100));
  EXPECT_TRUE(rule.involved_within(5, msec(299), msec(200)));
  EXPECT_TRUE(rule.involved_within(2, msec(299), msec(200)));
  EXPECT_FALSE(rule.involved_within(2, msec(300), msec(200)));
  EXPECT_FALSE(rule.involved_within(3, msec(150), msec(200)));
  EXPECT_FALSE(rule.involved_within(64, msec(150), msec(200)));
}

/// A measured thread: id, core, and its speed this pass.
struct Measured {
  std::int64_t id;
  int core;
  double speed;
};

const std::vector<Measured> kMeasured = {
    {10, 0, 0.9}, {11, 0, 0.5}, {12, 1, 0.25}, {13, 3, 1.0}, {14, 0, 0.1}};

TEST(SpeedAggregate, SimAndNativeInputsAgree) {
  // The simulated balancer sizes the pass to every core of the machine,
  // checks each managed core online and reads queue lengths off the run
  // queues; the native one sizes it to its highest managed CPU, counts
  // every managed core present at nominal 1.0 and reports measured thread
  // counts. On a homogeneous machine with every core online the two
  // aggregates must agree on every managed core.
  const std::vector<int> cores = {0, 1, 2, 3};
  SpeedAggregate sim;
  sim.reset(6);
  SpeedAggregate native;
  native.reset(static_cast<std::size_t>(cores.back()) + 1);
  std::vector<int> run_queue(6, 0);
  for (const Measured& m : kMeasured) {
    sim.add({m.id, m.core, 0}, m.speed);
    native.add({m.id, m.core, 0}, m.speed);
    ++run_queue[static_cast<std::size_t>(m.core)];
  }
  const std::vector<double> clock(6, 1.0);
  EXPECT_EQ(sim.close(cores, [](int) { return true; },
                      [&](int c) { return clock[static_cast<std::size_t>(c)]; }),
            4);
  EXPECT_EQ(native.close(cores, [](int) { return true; },
                         [](int) { return 1.0; }),
            4);

  for (const int c : cores) {
    const auto i = static_cast<std::size_t>(c);
    EXPECT_EQ(sim.speed()[i], native.speed()[i]) << "core " << c;
    EXPECT_EQ(sim.present()[i], 1);
    EXPECT_EQ(native.present()[i], 1);
  }
  EXPECT_EQ(sim.speed()[0], (0.9 + 0.5 + 0.1) / 3.0);
  EXPECT_EQ(sim.speed()[2], 1.0);  // Empty.
  EXPECT_EQ(sim.global(), native.global());
  EXPECT_EQ(sim.global(), (sim.speed()[0] + 0.25 + 1.0 + 1.0) / 4.0);
  EXPECT_EQ(sim.threads().size(), native.threads().size());

  const obs::SpeedSample a =
      sim.sample(7, 2, cores, 0.9,
                 [&](int c) { return run_queue[static_cast<std::size_t>(c)]; });
  const obs::SpeedSample b = native.sample(
      7, 2, cores, 0.9, [&](int c) { return native.count(c); });
  EXPECT_EQ(a.core_speed, b.core_speed);
  EXPECT_EQ(a.global, b.global);
  EXPECT_EQ(a.queue_len, b.queue_len);
  EXPECT_EQ(a.queue_len, (std::vector<int>{3, 1, 0, 1}));
  EXPECT_EQ(a.below_threshold, b.below_threshold);
  EXPECT_EQ(a.below_threshold, (std::vector<bool>{true, true, false, false}));
}

TEST(SpeedAggregate, EmptyCoreTakesItsNominalSpeed) {
  SpeedAggregate agg;
  agg.reset(3);
  agg.add({1, 0, 0}, 0.5);
  const auto clock = [](int c) { return c == 2 ? 3.0 : 1.0; };
  ASSERT_EQ(agg.close({0, 1, 2}, [](int) { return true; }, clock), 3);
  EXPECT_EQ(agg.speed(), (std::vector<double>{0.5, 1.0, 3.0}));
  EXPECT_EQ(agg.global(), 4.5 / 3.0);
}

TEST(SpeedAggregate, AbsentCoreReadsZeroAndLeavesTheGlobal) {
  // Core 1 is managed but absent (offline); its thread still sums there,
  // yet the pass neither averages it nor counts it in the global speed.
  SpeedAggregate agg;
  agg.reset(3);
  agg.add({1, 0, 0}, 0.5);
  agg.add({2, 1, 0}, 0.8);
  agg.add({3, 2, 0}, 0.2);
  const std::vector<int> cores = {2, 1, 0};
  ASSERT_EQ(agg.close(cores, [](int c) { return c != 1; },
                      [](int) { return 1.0; }),
            2);
  EXPECT_EQ(agg.present(), (std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_EQ(agg.global(), (0.5 + 0.2) / 2.0);
  const obs::SpeedSample s =
      agg.sample(9, -1, cores, 0.9, [](int) { return -1; });
  EXPECT_EQ(s.ts_us, 9);
  EXPECT_EQ(s.observer, -1);
  EXPECT_EQ(s.core_speed, (std::vector<double>{0.2, 0.0, 0.5}));
  EXPECT_EQ(s.below_threshold, (std::vector<bool>{true, true, false}));

  // A pass with no present core keeps the last global speed.
  agg.reset(3);
  EXPECT_EQ(agg.close(cores, [](int) { return false; },
                      [](int) { return 1.0; }),
            0);
  EXPECT_EQ(agg.global(), (0.5 + 0.2) / 2.0);
}

TEST(SpeedAggregate, SpeedlessCandidateIsPullableButUnmeasured) {
  // A mostly-asleep thread stays a pull candidate but adds no speed: its
  // core counts as empty.
  SpeedAggregate agg;
  agg.reset(2);
  agg.add({1, 0, 2}, 0.4);
  agg.add({2, 1, 5});
  ASSERT_EQ(agg.close({0, 1}, [](int) { return true; },
                      [](int) { return 1.0; }),
            2);
  EXPECT_EQ(agg.count(1), 0);
  EXPECT_EQ(agg.speed()[1], 1.0);
  ASSERT_EQ(agg.threads().size(), 2u);
  EXPECT_EQ(agg.threads()[1].id, 2);
  EXPECT_EQ(agg.threads()[1].migrations, 5);

  // A pull rebooks the thread on its new core; speeds stay as measured.
  agg.move_thread(2, 0, 6);
  EXPECT_EQ(agg.threads()[1].core, 0);
  EXPECT_EQ(agg.threads()[1].migrations, 6);
  EXPECT_EQ(agg.speed()[1], 1.0);
}

}  // namespace
}  // namespace speedbal
