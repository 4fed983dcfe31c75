#include "serve/cli.hpp"

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/recorder.hpp"
#include "topo/presets.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace speedbal::serve {

bool print_listing(const Cli& cli, std::span<const char* const> dispatch) {
  std::span<const char* const> names;
  if (cli.has("list-policies"))
    names = kPolicyNames.names;
  else if (cli.has("list-dispatch"))
    names = dispatch;
  else if (cli.has("list-arrivals"))
    names = workload::kArrivalKindNames.names;
  else if (cli.has("list-services"))
    names = workload::kServiceKindNames.names;
  else
    return false;
  for (const char* n : names) std::cout << n << "\n";
  return true;
}

ServeConfig parse_serve_config(const Cli& cli) {
  ServeConfig config;
  config.topo = presets::by_name(cli.get("topo", "tigerton"));
  config.cores =
      static_cast<int>(cli.get_int("cores", config.topo.num_cores()));

  // `--serve` doubles as the policy when given a value (simrun spelling);
  // `--policy` is the servesim spelling; `--setup=SERVE-<POLICY>` is the
  // simrun scenario spelling. Bare `--serve` means "default".
  std::string policy = cli.get("policy", "SPEED");
  if (const std::string s = cli.get("setup"); s.rfind("SERVE-", 0) == 0)
    policy = s.substr(6);
  if (const std::string s = cli.get("serve"); !s.empty() && s != "true")
    policy = s;
  config.policy = parse_serve_policy(policy);

  const int workers = static_cast<int>(cli.get_int("workers", 0));
  const int k = config.cores > 0 ? config.cores : config.topo.num_cores();
  // Default to 2x oversubscription: with fewer workers than cores placement
  // barely matters, which would make every policy look alike.
  config.serve.workers = workers > 0 ? workers : 2 * k;
  config.serve.queue_capacity =
      static_cast<int>(cli.get_int("queue-cap", 64));
  // SHARE is only visible to the dispatcher through its weights, so it
  // defaults to weighted dispatch; --dispatch still overrides.
  config.serve.dispatch = parse_dispatch_policy(cli.get(
      "dispatch", config.policy == Policy::Share ? "weighted" : "jsq"));
  config.serve.idle = parse_idle_mode(cli.get("idle", "sleep"));
  config.serve.span_sampling_log2 =
      static_cast<int>(cli.get_int("span-sampling", 0));

  config.service.kind = workload::parse_service_kind(cli.get("service", "exp"));
  config.service.mean_us = cli.get_double("service-mean-us", 5000.0);
  config.service.cv = cli.get_double("service-cv", 1.5);
  config.service.pareto_shape = cli.get_double("pareto-shape", 2.2);

  config.arrival.kind =
      workload::parse_arrival_kind(cli.get("arrival", "poisson"));
  if (cli.has("rate")) {
    config.arrival.rate_rps = cli.get_double("rate", 0.0);
  } else {
    config.arrival.rate_rps =
        rate_for_utilization(config.topo, config.cores,
                             cli.get_double("utilization", 0.8),
                             config.service.mean_us);
  }
  config.arrival.burst_factor = cli.get_double("burst-factor", 4.0);
  config.arrival.burst_dwell_mean =
      static_cast<SimTime>(cli.get_double("burst-dwell-ms", 200.0) * kMsec);
  config.arrival.calm_dwell_mean =
      static_cast<SimTime>(cli.get_double("calm-dwell-ms", 800.0) * kMsec);
  config.arrival.diurnal_period =
      static_cast<SimTime>(cli.get_double("diurnal-period-s", 10.0) * kSec);
  config.arrival.diurnal_swing = cli.get_double("diurnal-swing", 0.8);

  config.adaptive.enabled = cli.has("adaptive");

  config.duration =
      static_cast<SimTime>(cli.get_double("duration-s", 10.0) * kSec);
  config.warmup = static_cast<SimTime>(cli.get_double("warmup-s", 1.0) * kSec);
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  if (cli.has("perturb"))
    config.perturb = perturb::PerturbTimeline::parse_specs(cli.get("perturb"));
  if (cli.has("perturb-json")) {
    const auto from_file =
        perturb::PerturbTimeline::load_json_file(cli.get("perturb-json"));
    for (const auto& ev : from_file.events()) config.perturb.add(ev);
  }
  return config;
}

int serve_main(const Cli& cli, std::string_view tool) {
  ServeConfig config = parse_serve_config(cli);

  const std::string trace_out = cli.get("trace-out");
  const std::string report_json = cli.get("report-json");
  obs::RunRecorder recorder;
  // The overhead gate needs the recorder active to have anything to meter,
  // so asking for the gate implies recording even with no output files.
  const bool record = !trace_out.empty() || !report_json.empty() ||
                      cli.has("max-overhead-pct");
  if (record) {
    recorder.set_meta("tool", std::string(tool));
    recorder.set_meta("machine", config.topo.name());
    recorder.set_meta("mode", "serve");
    recorder.set_meta("policy", to_string(config.policy));
    recorder.set_meta("dispatch", to_string(config.serve.dispatch));
    recorder.set_meta("idle", to_string(config.serve.idle));
    recorder.set_meta("arrival", workload::to_string(config.arrival.kind));
    recorder.set_meta("service", workload::to_string(config.service.kind));
    recorder.set_meta("workers", std::to_string(config.serve.workers));
    recorder.set_meta("cores", std::to_string(config.cores));
    recorder.set_meta("seed", std::to_string(config.seed));
    recorder.set_meta("span_sampling",
                      std::to_string(config.serve.span_sampling_log2));
    if (config.adaptive.enabled) recorder.set_meta("adaptive", "1");
    {
      std::ostringstream rate;
      rate << config.arrival.rate_rps;
      recorder.set_meta("rate_rps", rate.str());
    }
    if (!config.perturb.empty())
      recorder.set_meta("perturb", config.perturb.to_specs());
    config.recorder = &recorder;
  }

  const int repeats = static_cast<int>(cli.get_int("repeats", 1));
  const int jobs = resolve_jobs(static_cast<int>(cli.get_int("jobs", 0)));
  const auto wall_start = std::chrono::steady_clock::now();
  const ServeResult result = run_serve_repeats(config, repeats, jobs);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const ServeStats& s = result.stats;

  Table table({"metric", "value"});
  table.add_row({"machine", config.topo.name()});
  table.add_row({"policy", to_string(config.policy)});
  if (repeats > 1) table.add_row({"replicas", std::to_string(repeats)});
  table.add_row({"dispatch", to_string(config.serve.dispatch)});
  table.add_row({"workers / cores", std::to_string(config.serve.workers) +
                                        " / " + std::to_string(config.cores)});
  table.add_row({"arrival",
                 std::string(workload::to_string(config.arrival.kind)) + " @ " +
                     Table::num(config.arrival.rate_rps, 1) + " req/s"});
  table.add_row({"service",
                 std::string(workload::to_string(config.service.kind)) +
                     " mean " + Table::num(config.service.mean_us, 0) + "us"});
  table.add_row({"offered load",
                 Table::num(config.arrival.rate_rps *
                                config.service.mean_us / 1e6 /
                                capacity(config.topo, config.cores),
                            2)});
  table.add_row({"requests (generated)", std::to_string(result.generated)});
  table.add_row({"offered / admitted / dropped",
                 std::to_string(s.offered) + " / " + std::to_string(s.admitted) +
                     " / " + std::to_string(s.dropped)});
  table.add_row({"completed", std::to_string(s.completed)});
  table.add_row({"drop rate %", Table::num(100.0 * s.drop_rate(), 2)});
  table.add_row({"goodput (req/s)", Table::num(result.goodput_rps, 1)});
  table.add_row({"latency p50 (ms)", Table::num(s.latency.percentile(50) / 1e6, 2)});
  table.add_row({"latency p95 (ms)", Table::num(s.latency.percentile(95) / 1e6, 2)});
  table.add_row({"latency p99 (ms)", Table::num(s.latency.percentile(99) / 1e6, 2)});
  table.add_row({"latency p99.9 (ms)",
                 Table::num(s.latency.percentile(99.9) / 1e6, 2)});
  table.add_row({"queue wait p99 (ms)",
                 Table::num(s.queue_wait.percentile(99) / 1e6, 2)});
  table.add_row({"max queue depth", std::to_string(s.max_queue_depth)});
  table.add_row({"migrations", std::to_string(result.total_migrations)});
  double overhead_pct = 0.0;
  if (record) {
    overhead_pct = recorder.overhead().pct_of(wall_s);
    table.add_row({"sampled spans", std::to_string(recorder.spans().size())});
    table.add_row({"tracing overhead %", Table::num(overhead_pct, 3)});
    table.add_row({"export overhead %",
                   Table::num(recorder.export_overhead().pct_of(wall_s), 3)});
  }
  table.print(std::cout);

  bool io_ok = true;
  if (!trace_out.empty()) io_ok &= obs::write_trace_file(recorder, trace_out);
  if (!report_json.empty())
    io_ok &= obs::write_report_file(recorder, report_json);
  if (!io_ok) return 2;
  // Self-overhead budget gate (check.sh uses this): fail when the
  // observability layer's hot-path cost (span capture) exceeds the
  // allowed share of wall time. End-of-run export is reported
  // above but not gated: its bulk copy scales with simulated time, so it
  // dominates the ratio on fast episodes without taxing the serving path.
  if (record && cli.has("max-overhead-pct") &&
      overhead_pct > cli.get_double("max-overhead-pct", 100.0)) {
    std::cerr << "serve: tracing overhead " << overhead_pct
              << "% exceeds --max-overhead-pct="
              << cli.get_double("max-overhead-pct", 100.0) << "\n";
    return 3;
  }
  return 0;
}

}  // namespace speedbal::serve
