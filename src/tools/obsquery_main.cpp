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

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace speedbal;

std::vector<obs::RequestSpan> load_spans(const JsonValue& root) {
  std::vector<obs::RequestSpan> out;
  const JsonValue* reqs = root.find("requests");
  if (reqs == nullptr) return out;
  out.reserve(reqs->size());
  for (const JsonValue& r : reqs->items()) {
    obs::RequestSpan s;
    s.id = r.at("id").as_int();
    s.cls = static_cast<int>(r.at("class").as_int());
    s.worker = static_cast<int>(r.at("worker").as_int());
    s.arrival_us = r.at("arrival_us").as_int();
    s.started_us = r.at("started_us").as_int();
    s.completed_us = r.at("completed_us").as_int();
    s.exec_us = r.at("exec_us").as_int();
    s.stall_us = r.at("stall_us").as_number();
    s.migrations = static_cast<int>(r.at("migrations").as_int());
    out.push_back(s);
  }
  return out;
}

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
  const JsonValue* migs = root.find("migrations");
  std::vector<std::int64_t> ts;
  if (migs != nullptr)
    for (const JsonValue& m : migs->items()) ts.push_back(m.at("t_us").as_int());
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
  const JsonValue* decisions = root.find("decisions");
  const JsonValue* records =
      decisions != nullptr ? decisions->find("records") : nullptr;
  Table t({"t_ms", "victim", "from", "to", "sample_seq", "warmup_us",
           "src_speed", "local_speed", "global"});
  std::int64_t pulls = 0;
  if (records != nullptr) {
    for (const JsonValue& d : records->items()) {
      if (d.at("reason").as_string() != "pulled") continue;
      ++pulls;
      const JsonValue* seq = d.find("sample_seq");
      const JsonValue* warm = d.find("warmup_charged_us");
      t.add_row({ms(static_cast<double>(d.at("t_us").as_int())),
                 std::to_string(d.at("victim").as_int()),
                 std::to_string(d.at("source").as_int()),
                 std::to_string(d.at("local").as_int()),
                 seq != nullptr ? std::to_string(seq->as_int()) : "-",
                 warm != nullptr ? Table::num(warm->as_number(), 1) : "-",
                 Table::num(d.at("source_speed").as_number(), 3),
                 Table::num(d.at("local_speed").as_number(), 3),
                 Table::num(d.at("global").as_number(), 3)});
    }
  }
  std::cout << pulls << " pull(s); sample_seq indexes speed_timeline\n";
  if (pulls > 0) t.print(std::cout);
}

int print_rebalances(const JsonValue& root, const Cli& cli) {
  const JsonValue* rebalances = root.find("rebalances");
  if (rebalances == nullptr) {
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
  for (const JsonValue& r : rebalances->items()) {
    ++epochs;
    const std::string outcome = r.at("outcome").as_string();
    const JsonValue* pool = r.find("pool");
    if (outcome == "migrated") ++migrated;
    // With --pool: show that pool's migrations, plus every non-migration
    // epoch (the below-threshold / cooldown context explains the gaps).
    if (filter_pool && pool != nullptr && pool->as_int() != want) continue;
    t.add_row({ms(static_cast<double>(r.at("t_us").as_int())),
               std::to_string(r.at("epoch").as_int()), outcome,
               Table::num(r.at("imbalance").as_number(), 3),
               Table::num(r.at("threshold").as_number(), 3),
               pool != nullptr ? std::to_string(pool->as_int()) : "-",
               pool != nullptr ? std::to_string(r.at("from_node").as_int())
                               : "-",
               pool != nullptr ? std::to_string(r.at("to_node").as_int())
                               : "-",
               pool != nullptr ? std::to_string(r.at("drained").as_int())
                               : "-"});
  }
  std::cout << epochs << " epoch(s), " << migrated << " migration(s)\n";
  t.print(std::cout);
  return 0;
}

int print_shares(const JsonValue& root) {
  const JsonValue* shares = root.find("shares");
  if (shares == nullptr) {
    std::cout << "no shares section (SHARE policy did not run, or nothing "
                 "was recorded)\n";
    return 0;
  }
  std::int64_t epochs = 0;
  std::int64_t repartitions = 0;
  Table t({"t_ms", "epoch", "outcome", "max_delta", "floor", "shares"});
  for (const JsonValue& r : shares->items()) {
    ++epochs;
    const std::string outcome = r.at("outcome").as_string();
    if (outcome == "repartitioned") ++repartitions;
    std::string w;
    for (const JsonValue& s : r.at("shares").items()) {
      if (!w.empty()) w += "/";
      w += Table::num(s.as_number(), 3);
    }
    t.add_row({ms(static_cast<double>(r.at("t_us").as_int())),
               std::to_string(r.at("epoch").as_int()), outcome,
               Table::num(r.at("max_delta").as_number(), 4),
               std::to_string(r.at("floor_clamped").as_int()), w});
  }
  std::cout << epochs << " epoch(s), " << repartitions << " repartition(s)\n";
  t.print(std::cout);
  return 0;
}

int print_tuning(const JsonValue& root) {
  const JsonValue* tuning = root.find("tuning");
  if (tuning == nullptr) {
    std::cout << "no tuning section (--adaptive did not run, or nothing "
                 "was recorded)\n";
    return 0;
  }
  std::int64_t epochs = 0;
  std::int64_t changes = 0;
  Table t({"t_ms", "epoch", "outcome", "arm", "interval_ms", "T_s", "block",
           "dispersion", "predicted", "reward"});
  for (const JsonValue& r : tuning->items()) {
    ++epochs;
    const std::string outcome = r.at("outcome").as_string();
    if (r.at("arm").as_int() != r.at("prev_arm").as_int()) ++changes;
    t.add_row({ms(static_cast<double>(r.at("t_us").as_int())),
               std::to_string(r.at("epoch").as_int()), outcome,
               std::to_string(r.at("arm").as_int()),
               ms(static_cast<double>(r.at("interval_us").as_int())),
               Table::num(r.at("threshold").as_number(), 2),
               std::to_string(r.at("post_migration_block").as_int()),
               Table::num(r.at("dispersion").as_number(), 4),
               Table::num(r.at("predicted").as_number(), 4),
               Table::num(r.at("reward").as_number(), 4)});
  }
  std::cout << epochs << " epoch(s), " << changes
            << " parameter change(s)\n";
  t.print(std::cout);
  return 0;
}

void print_summary(const JsonValue& root,
                   const std::vector<obs::RequestSpan>& spans) {
  Table t({"field", "value"});
  if (const JsonValue* meta = root.find("meta"))
    for (const auto& [k, v] : meta->members())
      t.add_row({k, v.as_string()});
  if (const JsonValue* tel = root.find("telemetry")) {
    t.add_row({"spans", std::to_string(tel->at("spans").as_int())});
    t.add_row({"telemetry records", std::to_string(tel->at("records").as_int())});
  }
  // Nonzero once the speed timeline reached its cap: the report's
  // global_speed statistics then cover only the kept (earliest) samples.
  std::int64_t timeline_dropped = 0;
  if (const JsonValue* counters = root.find("counters"))
    if (const JsonValue* n = counters->find("speed_timeline.dropped"))
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
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue root = JsonValue::parse(buf.str());
  const auto spans = load_spans(root);

  if (cli.has("slowest")) {
    print_slowest(spans,
                  static_cast<std::size_t>(cli.get_int("slowest", 10)));
    return 0;
  }
  if (cli.has("blame")) {
    print_blame(spans);
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
  print_summary(root, spans);
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
