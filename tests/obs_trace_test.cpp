// Observability layer: the trace collector, speed timeline, the capped
// record log behind the decision log and its siblings, and the RunRecorder
// exporters. The Chrome-trace and run-report outputs
// are parsed back with the in-tree JSON parser, so these tests double as
// validity checks for what --trace-out / --report-json write to disk.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/scenarios.hpp"
#include "obs/recorder.hpp"
#include "serve/scenarios.hpp"
#include "sim/metrics.hpp"
#include "topo/presets.hpp"
#include "util/json.hpp"

namespace speedbal {
namespace {

using obs::DecisionRecord;
using obs::PullReason;
using obs::RunRecorder;
using obs::SpeedSample;

TEST(Json, WriterParserRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "a \"quoted\"\nstring");
  w.kv("count", 42);
  w.kv("ratio", 0.5);
  w.kv("on", true);
  w.key("list").begin_array().value(1).value(2).value(3).end_array();
  w.key("nested").begin_object().kv("k", "v").end_object();
  w.end_object();

  const auto doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("name").as_string(), "a \"quoted\"\nstring");
  EXPECT_EQ(doc.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), 0.5);
  EXPECT_TRUE(doc.at("on").as_bool());
  ASSERT_EQ(doc.at("list").size(), 3u);
  EXPECT_EQ(doc.at("list")[2].as_int(), 3);
  EXPECT_EQ(doc.at("nested").at("k").as_string(), "v");
  EXPECT_FALSE(doc.find("absent"));
}

/// The message `JsonValue::parse(text)` throws, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    JsonValue::parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Json, ParserRejectsMalformed) {
  // Errors anywhere in the document are parse errors, including those in
  // values no caller ever reads, and each names its offset.
  const std::pair<const char*, const char*> cases[] = {
      {"{", "offset 1: unexpected end of input"},
      {"", "offset 0: unexpected end of input"},
      {"{} trailing", "offset 3: trailing characters after document"},
      {"[1,]", "offset 3: expected value"},
      {R"({"a":1,})", "offset 7: expected '\"'"},
      {"[1,2", "offset 4: unexpected end of input"},
      {"[1 2]", "offset 3: expected ']'"},
      {R"({"a" 1})", "offset 5: expected ':'"},
      {"{1:2}", "offset 1: expected '\"'"},
      {"[tru]", "offset 1: expected value"},
      {R"([1,{"b":"x\qy"}])", "offset 12: unknown escape"},
      {R"(["\u00zz"])", "offset 7: bad \\u escape"},
      {R"(["\u00)", "offset 4: truncated \\u escape"},
      {R"(["a\)", "offset 4: unterminated escape"},
      {R"(["ab)", "offset 4: unterminated string"},
      {R"({"a":{"b":[0,{"c":1e}]}})", "offset 20: bad number"},
      {"[1-2]", "offset 4: bad number"},
      {R"({"a":-})", "offset 6: bad number '-'"},
      {R"({"a":[1e999]})", "offset 11: bad number '1e999'"},
  };
  for (const auto& [text, why] : cases)
    EXPECT_EQ(parse_error(text), std::string("JSON parse error at ") + why)
        << text;
}

TEST(Json, MembersAreSortedByKeyAndTheLastDuplicateWins) {
  const auto doc = JsonValue::parse(
      R"({"b":1,"a":2,"c":{"z":0},"a":3,"A":4,"b":5})");
  std::vector<std::string> keys;
  std::vector<std::int64_t> ints;
  for (const auto& [k, v] : doc.members()) {
    keys.push_back(k);
    if (v.type() == JsonValue::Type::Number) ints.push_back(v.as_int());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"A", "a", "b", "c"}));
  EXPECT_EQ(ints, (std::vector<std::int64_t>{4, 3, 5}));
  EXPECT_EQ(doc.find("a")->as_int(), 3);
  EXPECT_EQ(doc.find("b")->as_int(), 5);
  EXPECT_EQ(doc.at("A").as_int(), 4);
  EXPECT_EQ(doc.at("c").at("z").as_int(), 0);
}

/// Parse a Chrome trace and return the traceEvents array.
JsonValue parse_trace(const std::string& text) {
  auto doc = JsonValue::parse(text);
  EXPECT_TRUE(doc.find("traceEvents"));
  return doc;
}

TEST(TraceCollector, ChromeTraceParsesAndIsOrderedPerTrack) {
  RunRecorder rec;
  rec.set_meta("tool", "test-proc");
  rec.set_cores({0, 1});
  obs::TraceCollector& tc = rec.trace();
  // Emit out of timestamp order across two tracks.
  tc.instant(300, 1, "c", "cat");
  tc.instant(100, 0, "a", "cat");
  obs::TraceEvent span;
  span.kind = obs::EventKind::Span;
  span.ts_us = 200;
  span.dur_us = 50;
  span.track = 1;
  span.name = "b";
  span.cat = "run";
  tc.add(span);
  tc.counter(150, "speed", {{"v", 2.0}});

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const auto doc = parse_trace(os.str());
  const auto& events = doc.at("traceEvents");

  std::map<std::int64_t, std::int64_t> last_ts_by_tid;
  bool saw_process_name = false;
  for (const JsonValue& ev : events.items()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph == "M") {
      if (ev.at("name").as_string() == "process_name")
        saw_process_name =
            ev.at("args").at("name").as_string() == "test-proc";
      continue;
    }
    const std::int64_t tid = ev.at("tid").as_int();
    const std::int64_t ts = ev.at("ts").as_int();
    auto it = last_ts_by_tid.find(tid);
    if (it != last_ts_by_tid.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts_by_tid[tid] = ts;
  }
  EXPECT_TRUE(saw_process_name);
  // 4 events beyond the 3 metadata records.
  EXPECT_EQ(events.size(), 3u + 4u);
}

TEST(SpeedTimeline, GlobalStats) {
  obs::SpeedTimeline tl;
  for (const double g : {1.0, 2.0, 3.0}) {
    SpeedSample s;
    s.ts_us = static_cast<std::int64_t>(g * 100);
    s.global = g;
    s.core_speed = {g, g};
    s.queue_len = {1, 1};
    s.below_threshold = {false, false};
    tl.add(s);
  }
  const auto stats = obs::global_stats(tl.snapshot());
  EXPECT_EQ(stats.samples, 3);
  EXPECT_DOUBLE_EQ(stats.mean, 2.0);
  EXPECT_DOUBLE_EQ(stats.variance, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 3.0);
}

TEST(DecisionLog, CountsAndRecordCap) {
  obs::DecisionLog log;
  log.set_cap(2);
  DecisionRecord rec;
  rec.reason = PullReason::Pulled;
  log.add(rec);
  rec.reason = PullReason::AboveThreshold;
  log.add(rec);
  log.add(rec);
  EXPECT_EQ(log.count(PullReason::Pulled), 1);
  EXPECT_EQ(log.count(PullReason::AboveThreshold), 2);
  // Counters keep counting past the cap; record storage does not.
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1);
}

// --- CappedLog: the one capped record log behind every recorder table ---

enum class Hue { Red = 0, Blue };

struct HueRecord {
  int seq = 0;
  Hue hue = Hue::Red;

  HueRecord(int s, Hue h) : seq(s), hue(h) {}
};

using PlainLog = obs::CappedLog<HueRecord, 4>;
using HueLog = obs::CappedLog<HueRecord, 4, &HueRecord::hue, 2>;

/// Records seq first, first + 1, ... of `hue`, one add() each: the
/// reference for append.
template <class Log>
void add_each(Log& log, int first, int n, Hue hue = Hue::Red) {
  for (int i = 0; i < n; ++i) log.add(HueRecord(first + i, hue));
}

std::vector<int> seqs(const std::vector<HueRecord>& records) {
  std::vector<int> out;
  for (const HueRecord& r : records) out.push_back(r.seq);
  return out;
}

TEST(CappedLog, DefaultCapKeepsTheOldestRecordsAndCountsDrops) {
  PlainLog log;
  for (int i = 0; i < 6; ++i) log.add(HueRecord(i, Hue::Red));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 2);
  EXPECT_EQ(seqs(log.snapshot()), (std::vector<int>{0, 1, 2, 3}));

  log.set_cap(5);  // Raising the cap makes room again.
  log.add(HueRecord(6, Hue::Red));
  log.add(HueRecord(7, Hue::Red));
  EXPECT_EQ(seqs(log.snapshot()), (std::vector<int>{0, 1, 2, 3, 6}));
  EXPECT_EQ(log.dropped(), 3);
}

TEST(CappedLog, AddReturnsTheRecordIndexOrMinusOneWhenDropped) {
  PlainLog log;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(log.add(HueRecord(i, Hue::Red)), i);
  EXPECT_EQ(log.add(HueRecord(4, Hue::Red)), -1);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 1);
}

TEST(CappedLog, CountersKeepCountingPastTheCap) {
  HueLog log;
  log.set_cap(2);
  log.add(HueRecord(0, Hue::Red));
  log.add(HueRecord(1, Hue::Blue));
  log.add(HueRecord(2, Hue::Blue));
  log.add(HueRecord(3, Hue::Red));
  log.add(HueRecord(4, Hue::Blue));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 3);
  EXPECT_EQ(log.count(Hue::Red), 2);
  EXPECT_EQ(log.count(Hue::Blue), 3);
  EXPECT_EQ(log.counts(), (std::array<std::int64_t, 2>{2, 3}));
}

/// Records seq first, first + 1, ... of `hue`, as one vector for append.
std::vector<HueRecord> hues(int first, int n, Hue hue = Hue::Red) {
  std::vector<HueRecord> out;
  for (int i = 0; i < n; ++i) out.emplace_back(first + i, hue);
  return out;
}

TEST(CappedLog, AppendKeepsWhatTheCapKeeps) {
  // The same appends, one add() at a time and through append: same
  // records, same drops.
  PlainLog by_add;
  PlainLog by_append;
  add_each(by_add, 0, 3);
  by_append.append(hues(0, 3), 0);
  add_each(by_add, 10, 3);  // One fits, two drop.
  by_append.append(hues(10, 3), 0);
  add_each(by_add, 20, 2);  // Full: both drop.
  by_append.append(hues(20, 2), 0);
  EXPECT_EQ(seqs(by_append.snapshot()), (std::vector<int>{0, 1, 2, 10}));
  EXPECT_EQ(seqs(by_append.snapshot()), seqs(by_add.snapshot()));
  EXPECT_EQ(by_append.dropped(), 4);
  EXPECT_EQ(by_append.dropped(), by_add.dropped());
  EXPECT_EQ(by_append.room(), 0u);

  // A run longer than the cap into an empty log keeps its head; the
  // records its producer never built count as dropped too.
  PlainLog fresh;
  EXPECT_EQ(fresh.room(), 4u);
  fresh.append(hues(0, 6), 3);
  EXPECT_EQ(seqs(fresh.snapshot()), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(fresh.dropped(), 5);
}

// --- Segment export: a run keeps what the table's cap keeps ---

/// Two runs' segments: nine spread over four cores, then five of other
/// tasks.
std::vector<obs::RunSegmentRecord> first_run() {
  std::vector<obs::RunSegmentRecord> out;
  for (int i = 0; i < 9; ++i)
    out.push_back({msec(i), usec(50 + i), i % 4, i % 3, -1, 0});
  return out;
}

std::vector<obs::RunSegmentRecord> second_run() {
  std::vector<obs::RunSegmentRecord> out;
  for (int i = 0; i < 5; ++i)
    out.push_back({msec(20 + i), usec(7), 3 - i % 4, 10 + i, -1, 0});
  return out;
}

/// Records `segs` into a Metrics that keeps its segments for `rec`, as a
/// recorded run does, tagged with cluster node `node`.
Metrics recorded_run(const std::vector<obs::RunSegmentRecord>& segs,
                     RunRecorder& rec, int node) {
  Metrics m(4);
  m.keep_segments_for(&rec.run_segments(), node);
  for (const obs::RunSegmentRecord& s : segs)
    m.record_exec(s.task, s.core, s.start_us, s.dur_us);
  return m;
}

/// The segment export without a run-side cap: every segment offered to the
/// table, one add() each.
void export_each(const std::vector<obs::RunSegmentRecord>& segs,
                 obs::RunSegmentTable& table, int node) {
  for (const obs::RunSegmentRecord& seg : segs)
    table.add({seg.start_us, seg.dur_us, seg.core, seg.task, node, 0});
}

void expect_same_segments(const obs::RunSegmentTable& got,
                          const obs::RunSegmentTable& want) {
  const auto g = got.snapshot();
  const auto w = want.snapshot();
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i].start_us, w[i].start_us) << i;
    EXPECT_EQ(g[i].dur_us, w[i].dur_us) << i;
    EXPECT_EQ(g[i].core, w[i].core) << i;
    EXPECT_EQ(g[i].task, w[i].task) << i;
    EXPECT_EQ(g[i].node, w[i].node) << i;
  }
  EXPECT_EQ(got.dropped(), want.dropped());
}

TEST(RunRecorder, CappedSegmentExportMatchesOneAddPerSegment) {
  // Room left after the first export: the second, recorded for the same
  // table before the first export filled it, overflows part-way.
  RunRecorder rec;
  obs::RunSegmentTable want;
  rec.run_segments().set_cap(12);
  want.set_cap(12);
  Metrics first = recorded_run(first_run(), rec, -1);
  Metrics second = recorded_run(second_run(), rec, 3);
  export_run_to_recorder(first, rec);
  export_each(first_run(), want, -1);
  export_run_to_recorder(second, rec);
  export_each(second_run(), want, 3);
  EXPECT_EQ(rec.run_segments().size(), 12u);
  EXPECT_EQ(rec.run_segments().dropped(), 2);
  expect_same_segments(rec.run_segments(), want);

  // More segments than the cap: the first run keeps only the cap's worth,
  // and the second, recorded after the first export, keeps none.
  RunRecorder small;
  obs::RunSegmentTable small_want;
  small.run_segments().set_cap(4);
  small_want.set_cap(4);
  Metrics small_first = recorded_run(first_run(), small, -1);
  export_run_to_recorder(small_first, small);
  export_each(first_run(), small_want, -1);
  Metrics small_second = recorded_run(second_run(), small, 3);
  export_run_to_recorder(small_second, small);
  export_each(second_run(), small_want, 3);
  EXPECT_EQ(small.run_segments().dropped(), 10);
  expect_same_segments(small.run_segments(), small_want);
}

TEST(RunRecorder, ReportRoundTripsCounters) {
  RunRecorder rec;
  rec.set_meta("tool", "unit-test");
  rec.incr("migrations.speed", 7);
  rec.incr("migrations.speed", 3);
  DecisionRecord d;
  d.reason = PullReason::Pulled;
  rec.decisions().add(d);
  d.reason = PullReason::NumaBlocked;
  rec.decisions().add(d);

  std::ostringstream os;
  rec.write_report_json(os);
  const auto doc = JsonValue::parse(os.str());

  EXPECT_EQ(doc.at("meta").at("tool").as_string(), "unit-test");
  const auto& counters = doc.at("counters");
  EXPECT_EQ(counters.at("migrations.speed").as_int(), 10);
  EXPECT_EQ(counters.at("pulls.performed").as_int(), 1);
  EXPECT_EQ(counters.at("pulls.rejected.numa-blocked").as_int(), 1);
  EXPECT_EQ(doc.at("decisions").at("by_reason").at("pulled").as_int(), 1);
  ASSERT_EQ(doc.at("decisions").at("records").size(), 2u);
  EXPECT_EQ(doc.at("decisions").at("records")[0].at("reason").as_string(),
            "pulled");
}

TEST(RunRecorder, TraceContainsTimelineAndPullEvents) {
  RunRecorder rec;
  rec.set_meta("tool", "unit-test");
  rec.set_cores({0, 1});
  SpeedSample s;
  s.ts_us = 100;
  s.global = 1.5;
  s.core_speed = {1.0, 2.0};
  s.queue_len = {2, 1};
  s.below_threshold = {true, false};
  rec.timeline().add(s);
  DecisionRecord d;
  d.ts_us = 100;
  d.local = 0;
  d.source = 1;
  d.victim = 42;
  d.reason = PullReason::Pulled;
  rec.decisions().add(d);

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const auto doc = JsonValue::parse(os.str());
  const auto& events = doc.at("traceEvents");

  bool saw_global_counter = false;
  bool saw_pull_instant = false;
  for (const JsonValue& ev : events.items()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph == "C" && ev.at("name").as_string() == "global speed") {
      saw_global_counter = true;
      EXPECT_DOUBLE_EQ(ev.at("args").at("speed").as_number(), 1.5);
    }
    if (ph == "i" && ev.at("name").as_string() == "pull") {
      saw_pull_instant = true;
      EXPECT_EQ(ev.at("args").at("victim").as_int(), 42);
      EXPECT_EQ(ev.at("args").at("from").as_int(), 1);
      EXPECT_EQ(ev.at("args").at("to").as_int(), 0);
    }
  }
  EXPECT_TRUE(saw_global_counter);
  EXPECT_TRUE(saw_pull_instant);
}

/// Migrations recorded through Metrics become cause-named "migration"
/// instants at trace export, and exporting the trace first leaves the
/// report's bytes alone.
TEST(RunRecorder, MigrationInstantsAreDerivedAtExportAndLeaveTheReportAlone) {
  RunRecorder rec;
  Metrics metrics(4);
  metrics.set_recorder(&rec);
  const std::array<MigrationCause, 3> causes = {MigrationCause::SpeedBalancer,
                                                MigrationCause::LinuxPush,
                                                MigrationCause::Hotplug};
  for (int i = 0; i < 3; ++i)
    metrics.record_migration(
        {usec(10 * (i + 1)), i, 0, i + 1, causes[static_cast<std::size_t>(i)]});
  EXPECT_EQ(rec.migrations().count(MigrationCause::LinuxPush), 1);
  EXPECT_EQ(rec.migrations().count(MigrationCause::Dwrr), 0);

  std::ostringstream report_alone;
  rec.write_report_json(report_alone);
  std::ostringstream trace_os;
  rec.write_chrome_trace(trace_os);
  std::ostringstream report_after_trace;
  rec.write_report_json(report_after_trace);
  EXPECT_EQ(report_after_trace.str(), report_alone.str());

  const auto trace = JsonValue::parse(trace_os.str());
  const auto& events = trace.at("traceEvents");
  std::size_t instants = 0;
  for (const JsonValue& ev : events.items()) {
    if (ev.at("ph").as_string() != "i" ||
        ev.at("name").as_string() != "migration")
      continue;
    ++instants;
    const auto task = static_cast<std::size_t>(ev.at("args").at("task").as_int());
    ASSERT_LT(task, causes.size());
    EXPECT_EQ(ev.at("cat").as_string(), "migrate");
    EXPECT_EQ(ev.at("tid").as_int(), ev.at("args").at("to").as_int());
    EXPECT_EQ(ev.at("args").at("cause").as_string(), to_string(causes[task]));
  }
  EXPECT_EQ(instants, causes.size());
}

/// Serve drops live in their own log: a burst of them cannot crowd the
/// free-form counters out of a capped trace collector, and each becomes a
/// "drop" instant on the worker's core track at export.
TEST(RunRecorder, DropInstantsAreDerivedAtExportAndLeaveTheTraceCapAlone) {
  RunRecorder rec;
  rec.trace().set_cap(2);
  rec.trace().counter(0, "serve load", {{"in_flight", 1.0}});
  for (int i = 0; i < 5; ++i)
    rec.drops().add({10 * (i + 1), 100 + i, i % 2, 4 + i % 2});
  rec.trace().counter(60, "serve load", {{"in_flight", 2.0}});
  EXPECT_EQ(rec.trace().dropped(), 0);
  EXPECT_EQ(rec.counters().count("trace.dropped"), 0u);

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const auto trace = JsonValue::parse(os.str());
  const auto& events = trace.at("traceEvents");
  int drops = 0;
  int loads = 0;
  for (const JsonValue& ev : events.items()) {
    if (ev.at("name").as_string() == "serve load") ++loads;
    if (ev.at("name").as_string() != "drop") continue;
    ++drops;
    EXPECT_EQ(ev.at("ph").as_string(), "i");
    EXPECT_EQ(ev.at("cat").as_string(), "serve");
    const std::int64_t worker = ev.at("args").at("worker").as_int();
    EXPECT_EQ(ev.at("tid").as_int(), 4 + worker);
    EXPECT_EQ(ev.at("args").at("request").as_int(),
              100 + ev.at("ts").as_int() / 10 - 1);
  }
  EXPECT_EQ(drops, 5);
  EXPECT_EQ(loads, 2);
}

/// End-to-end: a small SPEED-YIELD simulation recorded through the same
/// path simrun uses, then both exports parsed back.
TEST(RunRecorder, EndToEndSimulatedRun) {
  const auto topo = presets::by_name("generic2");
  const auto prof = npb::by_name("ep.S");
  auto config = scenarios::npb_config(topo, prof, /*threads=*/3, /*cores=*/2,
                                      scenarios::Setup::SpeedYield,
                                      /*repeats=*/1, /*seed=*/42);
  RunRecorder rec;
  config.recorder = &rec;
  const auto result = run_experiment(config);
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_TRUE(result.runs[0].completed);

  // The balancer sampled speeds at balance intervals and logged decisions.
  EXPECT_GT(rec.timeline().size(), 0u);
  EXPECT_GT(rec.decisions().size(), 0u);
  const auto stats = obs::global_stats(rec.timeline().snapshot());
  EXPECT_GT(stats.mean, 0.0);

  // One "migration" instant per recorded migration.
  std::ostringstream trace_os;
  rec.write_chrome_trace(trace_os);
  const auto trace = JsonValue::parse(trace_os.str());
  std::int64_t migration_instants = 0;
  const auto& events = trace.at("traceEvents");
  for (const JsonValue& ev : events.items()) {
    if (ev.at("ph").as_string() == "i" &&
        ev.at("name").as_string() == "migration")
      ++migration_instants;
  }
  EXPECT_EQ(migration_instants, result.runs[0].total_migrations);

  // The report's counters agree with the run's per-cause migration totals.
  std::ostringstream report_os;
  rec.write_report_json(report_os);
  const auto report = JsonValue::parse(report_os.str());
  EXPECT_EQ(report.at("global_speed").at("samples").as_int(),
            static_cast<std::int64_t>(rec.timeline().size()));
  std::int64_t counted = 0;
  for (const auto& [name, value] : report.at("counters").members())
    if (name.rfind("migrations.", 0) == 0) counted += value.as_int();
  EXPECT_EQ(counted, result.runs[0].total_migrations);
}

// --- Chrome-trace bytes: recorded runs pinned by digest ---

/// FNV-1a of a recorder's whole Chrome trace, as 16 hex digits.
std::string trace_digest(const RunRecorder& rec) {
  std::ostringstream os;
  rec.write_chrome_trace(os);
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Timestamps at which the trace holds a run span, a request span and a
/// migration instant: ties across three logs that the writer's order rule
/// must break.
std::size_t three_way_ties(const RunRecorder& rec) {
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const auto doc = JsonValue::parse(os.str());
  const auto& events = doc.at("traceEvents");
  std::set<std::int64_t> runs;
  std::set<std::int64_t> requests;
  std::set<std::int64_t> migrations;
  for (const JsonValue& ev : events.items()) {
    const std::string ph = ev.at("ph").as_string();
    const auto cat = ev.find("cat");
    if (ph == "M" || !cat) continue;
    const std::int64_t ts = ev.at("ts").as_int();
    if (ph == "X" && cat->as_string() == "run") runs.insert(ts);
    if (ph == "X" && cat->as_string() == "request") requests.insert(ts);
    if (ph == "i" && cat->as_string() == "migrate") migrations.insert(ts);
  }
  std::size_t ties = 0;
  for (const std::int64_t ts : runs)
    ties += requests.count(ts) * migrations.count(ts);
  return ties;
}

/// Four generic4 cores serving exponential 2 ms requests at utilization 0.7
/// for 1.5 s under `policy`, every request traced, core 0 halved at 300 ms.
serve::ServeConfig traced_serve_config(Policy policy, RunRecorder& rec) {
  serve::ServeConfig cfg;
  cfg.topo = presets::generic(4);
  cfg.cores = 4;
  cfg.policy = policy;
  cfg.serve.workers = 6;
  cfg.serve.span_sampling_log2 = 0;
  cfg.service.kind = workload::ServiceKind::Exp;
  cfg.service.mean_us = 2000.0;
  cfg.arrival.rate_rps = serve::rate_for_utilization(cfg.topo, 4, 0.7, 2000.0);
  cfg.duration = msec(1500);
  cfg.warmup = msec(200);
  cfg.seed = 11;
  cfg.perturb = perturb::PerturbTimeline::parse_specs(
      "at=300ms dvfs core=0 scale=0.5");
  cfg.recorder = &rec;
  return cfg;
}

TEST(TraceGolden, RecordedServeWithTiesAcrossSources) {
  // LOAD with sleeping workers: wake placements put a run span, a request
  // span and a migration at one microsecond. Round-robin dispatch into
  // one-deep queues drops requests.
  RunRecorder rec;
  serve::ServeConfig cfg = traced_serve_config(Policy::Load, rec);
  cfg.serve.dispatch = serve::DispatchPolicy::RoundRobin;
  cfg.serve.queue_capacity = 1;
  serve::run_serve(cfg);
  EXPECT_GT(three_way_ties(rec), 0u);
  EXPECT_GT(rec.drops().size(), 0u);
  EXPECT_EQ(trace_digest(rec), "7641f3af2366c2e6");
}

TEST(TraceGolden, RecordedAdaptiveSpeedServe) {
  // Speed samples, performed pulls and tuning epochs share the balance
  // pass's timestamp.
  RunRecorder rec;
  serve::ServeConfig cfg = traced_serve_config(Policy::Speed, rec);
  cfg.adaptive.enabled = true;
  serve::run_serve(cfg);
  EXPECT_GT(rec.timeline().size(), 0u);
  EXPECT_GT(rec.decisions().count(PullReason::Pulled), 0);
  EXPECT_GT(rec.tuning().size(), 0u);
  EXPECT_EQ(trace_digest(rec), "09b71989d04de740");
}

TEST(TraceGolden, RecordedShareServe) {
  RunRecorder rec;
  serve::ServeConfig cfg = traced_serve_config(Policy::Share, rec);
  cfg.serve.dispatch = serve::DispatchPolicy::Weighted;
  serve::run_serve(cfg);
  EXPECT_GT(rec.shares().size(), 0u);
  EXPECT_EQ(trace_digest(rec), "96e02eb353823a73");
}

TEST(TraceGolden, RecordedRebalancingCluster) {
  // Four SPEED nodes behind JSQ(2); node 0 drops to 1/10 clock at 200 ms
  // and the 100 ms rebalancer moves a pool off it: node-scoped run tracks,
  // their labels and the rebalancer's instants.
  RunRecorder rec;
  cluster::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.topo = presets::generic(4);
  cfg.cores = 4;
  cfg.policy = Policy::Speed;
  cfg.serve.workers = 4;
  cfg.dispatch = cluster::ClusterDispatch::JsqD;
  cfg.jsq_d = 2;
  cfg.service.kind = workload::ServiceKind::Exp;
  cfg.service.mean_us = 5000.0;
  cfg.arrival.rate_rps =
      4.0 * serve::rate_for_utilization(cfg.topo, 4, 0.7, 5000.0);
  cfg.duration = msec(1500);
  cfg.warmup = msec(200);
  cfg.seed = 11;
  cfg.rebalance.epoch = msec(100);
  cfg.rebalance.threshold = 0.3;
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = msec(200);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.1;
    cfg.node_perturb[0].add(ev);
  }
  cfg.recorder = &rec;
  const cluster::ClusterResult res = cluster::run_cluster(cfg);
  EXPECT_GE(res.pool_migrations, 1);
  EXPECT_GT(rec.run_segments().size(), 0u);
  EXPECT_EQ(trace_digest(rec), "b406fe4ce8e3b95f");
}

}  // namespace
}  // namespace speedbal
