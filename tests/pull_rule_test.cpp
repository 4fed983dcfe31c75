// The shared Section-5 pull rule on its own: one table of forged passes,
// each checked for the logged rejections (in order) and the returned pull.
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

}  // namespace
}  // namespace speedbal
