// obsquery: interrogate a JSON run report (servesim/simrun --report-json)
// for latency attribution and causal migration analysis.
//
//   obsquery --report=FILE                 summary (meta, spans, attribution)
//   obsquery --report=FILE --slowest=K     top-K slowest requests + blame
//   obsquery --report=FILE --blame         per-class attribution table
//   obsquery --report=FILE --storms        migration-storm windows
//            [--storm-window-ms=100] [--storm-threshold=8]
//   obsquery --report=FILE --pulls         pulled decisions with their causal
//                                          speed-sample link and warmup cost
//   obsquery --report=FILE --rebalances    cluster rebalancer epoch log;
//            [--pool=N]                    --pool narrows to one pool's moves
//                                          ("why did pool N migrate?")
//   obsquery --report=FILE --shares        SHARE repartition epoch log
//                                          ("why did core N's share shrink?")
//   obsquery --report=FILE --tuning        adaptive-controller epoch log
//                                          ("why did the interval drop?")
//
// Everything is computed from the report file alone — the tool never touches
// the simulator, so it can answer "why was p99 slow?" long after the run.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/decision_log.hpp"
#include "obs/migration_log.hpp"
#include "obs/rebalance_log.hpp"
#include "obs/share_log.hpp"
#include "obs/span.hpp"
#include "obs/tuning_log.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace speedbal;

std::string ms(double us) { return Table::num(us / 1000.0, 3); }

void print_slowest(const std::vector<obs::RequestSpan>& spans, std::size_t k) {
  const auto idx = obs::top_k_slowest(spans, k);
  Table t({"id", "class", "worker", "sojourn_ms", "queue_ms", "exec_ms",
           "preempt_ms", "stall_ms", "migr", "blame"});
  for (const std::size_t i : idx) {
    const obs::RequestSpan& s = spans[i];
    t.add_row({std::to_string(s.id), std::to_string(s.cls),
               std::to_string(s.worker),
               ms(static_cast<double>(s.sojourn_us())),
               ms(static_cast<double>(s.queue_us())),
               ms(static_cast<double>(s.exec_us)),
               ms(static_cast<double>(s.preempt_us())), ms(s.stall_us),
               std::to_string(s.migrations), obs::blame(s)});
  }
  t.print(std::cout);
}

void print_blame(const std::vector<obs::RequestSpan>& spans) {
  const obs::AttributionTable table = obs::AttributionTable::build(spans);
  Table t({"class", "requests", "queue %", "exec %", "preempt %", "stall %",
           "migr", "p99_ms"});
  for (const obs::ClassAttribution& a : table.classes) {
    const double total = static_cast<double>(a.queue_us + a.exec_us +
                                             a.preempt_us);
    const double denom = total > 0.0 ? total : 1.0;
    // Stall is a sub-share of exec; report exec net of stall so the four
    // shares sum to 100%.
    const double exec_net = static_cast<double>(a.exec_us) - a.stall_us;
    t.add_row({std::to_string(a.cls), std::to_string(a.requests),
               Table::num(100.0 * static_cast<double>(a.queue_us) / denom, 1),
               Table::num(100.0 * exec_net / denom, 1),
               Table::num(100.0 * static_cast<double>(a.preempt_us) / denom, 1),
               Table::num(100.0 * a.stall_us / denom, 1),
               std::to_string(a.migrations),
               Table::num(a.sojourn_ns.percentile(99.0) / 1e6, 2)});
  }
  t.print(std::cout);
}

int print_storms(const JsonValue& root, std::int64_t window_us,
                 std::int64_t threshold) {
  std::vector<std::int64_t> ts;
  for (const obs::MigrationRecord& m :
       read_records<obs::MigrationRecord>(root.find("migrations")))
    ts.push_back(m.ts_us);
  const auto storms = obs::detect_migration_storms(ts, window_us, threshold);
  std::cout << ts.size() << " migrations, " << storms.size()
            << " storm window(s) (window " << window_us / 1000 << "ms, threshold "
            << threshold << ")\n";
  if (storms.empty()) return 0;
  Table t({"start_ms", "end_ms", "migrations", "rate (/s)"});
  for (const obs::StormWindow& w : storms) {
    const double span_s =
        static_cast<double>(w.end_us - w.start_us + 1) / 1e6;
    t.add_row({ms(static_cast<double>(w.start_us)),
               ms(static_cast<double>(w.end_us)),
               std::to_string(w.migrations),
               Table::num(static_cast<double>(w.migrations) / span_s, 0)});
  }
  t.print(std::cout);
  return 0;
}

void print_pulls(const JsonValue& root) {
  const std::optional<JsonValue> decisions = root.find("decisions");
  Table t({"t_ms", "victim", "from", "to", "sample_seq", "warmup_us",
           "src_speed", "local_speed", "global"});
  std::int64_t pulls = 0;
  for (const obs::DecisionRecord& d : read_records<obs::DecisionRecord>(
           decisions ? decisions->find("records") : std::nullopt)) {
    if (d.reason != obs::PullReason::Pulled) continue;
    ++pulls;
    t.add_row({ms(static_cast<double>(d.ts_us)), std::to_string(d.victim),
               std::to_string(d.source), std::to_string(d.local),
               std::to_string(d.sample_seq),
               Table::num(d.warmup_charged_us, 1),
               Table::num(d.source_speed, 3), Table::num(d.local_speed, 3),
               Table::num(d.global, 3)});
  }
  std::cout << pulls << " pull(s); sample_seq indexes speed_timeline\n";
  if (pulls > 0) t.print(std::cout);
}

int print_rebalances(const JsonValue& root, const Cli& cli) {
  const std::optional<JsonValue> rebalances = root.find("rebalances");
  if (!rebalances) {
    std::cout << "no rebalances section (not a clustersim report, or the "
                 "rebalancer never ran)\n";
    return 0;
  }
  const bool filter_pool = cli.has("pool");
  const std::int64_t want = cli.get_int("pool", -1);
  std::int64_t epochs = 0;
  std::int64_t migrated = 0;
  Table t({"t_ms", "epoch", "outcome", "imbalance", "threshold", "pool",
           "from", "to", "drained"});
  for (const obs::RebalanceRecord& r :
       read_records<obs::RebalanceRecord>(rebalances)) {
    ++epochs;
    const bool moved = r.outcome == obs::RebalanceOutcome::Migrated;
    if (moved) ++migrated;
    // With --pool: show that pool's migrations, plus every non-migration
    // epoch (the below-threshold / cooldown context explains the gaps).
    if (filter_pool && moved && r.pool != want) continue;
    const auto moved_only = [moved](auto v) {
      return moved ? std::to_string(v) : std::string("-");
    };
    t.add_row({ms(static_cast<double>(r.ts_us)), std::to_string(r.epoch),
               obs::to_string(r.outcome), Table::num(r.imbalance, 3),
               Table::num(r.threshold, 3), moved_only(r.pool),
               moved_only(r.from_node), moved_only(r.to_node),
               moved_only(r.drained)});
  }
  std::cout << epochs << " epoch(s), " << migrated << " migration(s)\n";
  t.print(std::cout);
  return 0;
}

int print_shares(const JsonValue& root) {
  const std::optional<JsonValue> shares = root.find("shares");
  if (!shares) {
    std::cout << "no shares section (SHARE policy did not run, or nothing "
                 "was recorded)\n";
    return 0;
  }
  std::int64_t epochs = 0;
  std::int64_t repartitions = 0;
  Table t({"t_ms", "epoch", "outcome", "max_delta", "floor", "shares"});
  for (const obs::ShareRecord& r : read_records<obs::ShareRecord>(shares)) {
    ++epochs;
    if (r.outcome == obs::ShareOutcome::Repartitioned) ++repartitions;
    std::string w;
    for (const double s : r.shares) {
      if (!w.empty()) w += "/";
      w += Table::num(s, 3);
    }
    t.add_row({ms(static_cast<double>(r.ts_us)), std::to_string(r.epoch),
               obs::to_string(r.outcome), Table::num(r.max_delta, 4),
               std::to_string(r.floor_clamped), w});
  }
  std::cout << epochs << " epoch(s), " << repartitions << " repartition(s)\n";
  t.print(std::cout);
  return 0;
}

int print_tuning(const JsonValue& root) {
  const std::optional<JsonValue> tuning = root.find("tuning");
  if (!tuning) {
    std::cout << "no tuning section (--adaptive did not run, or nothing "
                 "was recorded)\n";
    return 0;
  }
  std::int64_t epochs = 0;
  std::int64_t changes = 0;
  Table t({"t_ms", "epoch", "outcome", "arm", "interval_ms", "T_s", "block",
           "dispersion", "predicted", "reward"});
  for (const obs::TuningRecord& r : read_records<obs::TuningRecord>(tuning)) {
    ++epochs;
    if (r.arm != r.prev_arm) ++changes;
    t.add_row({ms(static_cast<double>(r.ts_us)), std::to_string(r.epoch),
               obs::to_string(r.outcome), std::to_string(r.arm),
               ms(static_cast<double>(r.interval_us)),
               Table::num(r.threshold, 2),
               std::to_string(r.post_migration_block),
               Table::num(r.dispersion, 4), Table::num(r.predicted, 4),
               Table::num(r.reward, 4)});
  }
  std::cout << epochs << " epoch(s), " << changes
            << " parameter change(s)\n";
  t.print(std::cout);
  return 0;
}

void print_summary(const JsonValue& root,
                   const std::vector<obs::RequestSpan>& spans) {
  Table t({"field", "value"});
  if (const auto meta = root.find("meta"))
    for (const auto& [k, v] : meta->members())
      t.add_row({k, v.as_string()});
  if (const auto tel = root.find("telemetry")) {
    t.add_row({"spans", std::to_string(tel->at("spans").as_int())});
    t.add_row({"telemetry records", std::to_string(tel->at("records").as_int())});
  }
  // Nonzero once the speed timeline reached its cap: the report's
  // global_speed statistics then cover only the kept (earliest) samples.
  std::int64_t timeline_dropped = 0;
  if (const auto counters = root.find("counters"))
    if (const auto n = counters->find("speed_timeline.dropped"))
      timeline_dropped = n->as_int();
  t.add_row({"speed samples dropped", std::to_string(timeline_dropped)});
  t.print(std::cout);
  if (!spans.empty()) {
    std::cout << "\nper-class attribution:\n";
    print_blame(spans);
    std::cout << "\nslowest requests:\n";
    print_slowest(spans, 5);
  }
}

int run(const Cli& cli) {
  const std::string path = cli.get("report");
  if (path.empty()) {
    std::cerr << "usage: obsquery --report=FILE "
                 "[--slowest=K | --blame | --storms | --pulls | "
                 "--rebalances [--pool=N] | --shares | --tuning]\n";
    return 1;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "obsquery: cannot open " << path << "\n";
    return 1;
  }
  // The report's one copy, which the parsed root views.
  std::string text;
  std::error_code size_error;
  if (const auto size = std::filesystem::file_size(path, size_error);
      !size_error)
    text.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  const JsonValue root = JsonValue::parse(std::move(text));
  // The request spans, read only by the views that print them.
  const auto spans = [&root] {
    return read_records<obs::RequestSpan>(root.find("requests"));
  };

  if (cli.has("slowest")) {
    print_slowest(spans(),
                  static_cast<std::size_t>(cli.get_int("slowest", 10)));
    return 0;
  }
  if (cli.has("blame")) {
    print_blame(spans());
    return 0;
  }
  if (cli.has("storms")) {
    const auto window_us = static_cast<std::int64_t>(
        cli.get_double("storm-window-ms", 100.0) * 1000.0);
    return print_storms(root, window_us, cli.get_int("storm-threshold", 8));
  }
  if (cli.has("pulls")) {
    print_pulls(root);
    return 0;
  }
  if (cli.has("rebalances")) return print_rebalances(root, cli);
  if (cli.has("shares")) return print_shares(root);
  if (cli.has("tuning")) return print_tuning(root);
  print_summary(root, spans());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << "obsquery: " << e.what() << "\n";
    return 1;
  }
}
