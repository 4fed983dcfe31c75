#include "cluster/cli.hpp"

#include <chrono>
#include <iostream>
#include <sstream>

#include "obs/recorder.hpp"
#include "topo/presets.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace speedbal::cluster {

ClusterConfig parse_cluster_config(const Cli& cli) {
  ClusterConfig config;
  config.nodes = static_cast<int>(cli.get_int("nodes", 16));
  config.pools_per_node = static_cast<int>(cli.get_int("pools-per-node", 1));
  config.topo = presets::by_name(cli.get("topo", "generic4"));
  config.cores =
      static_cast<int>(cli.get_int("cores", config.topo.num_cores()));
  config.policy = serve::parse_serve_policy(cli.get("policy", "SPEED"));

  const int k = config.cores > 0 ? config.cores : config.topo.num_cores();
  const int workers = static_cast<int>(cli.get_int("workers", 0));
  // Per-pool workers; same 2x oversubscription default as servesim so the
  // per-node balancer has placement decisions to make.
  config.serve.workers =
      workers > 0 ? workers : 2 * k / std::max(1, config.pools_per_node);
  config.serve.workers = std::max(1, config.serve.workers);
  config.serve.queue_capacity =
      static_cast<int>(cli.get_int("queue-cap", 64));
  config.serve.dispatch =
      serve::parse_dispatch_policy(cli.get("pool-dispatch", "jsq"));
  config.serve.idle = serve::parse_idle_mode(cli.get("idle", "sleep"));
  // Span capture is per-request; at cluster request volumes it is off by
  // default (cluster reports carry the latency histograms instead).
  config.serve.span_sampling_log2 =
      static_cast<int>(cli.get_int("span-sampling", -1));

  config.adaptive.enabled = cli.has("adaptive");

  config.dispatch = parse_cluster_dispatch(cli.get("dispatch", "jsq"));
  config.jsq_d = static_cast<int>(cli.get_int("jsq-d", 2));
  config.hop =
      static_cast<SimTime>(cli.get_double("hop-us", 200.0) * kUsec);
  config.node_admission_cap =
      static_cast<int>(cli.get_int("node-admission-cap", 0));

  config.service.kind =
      workload::parse_service_kind(cli.get("service", "exp"));
  config.service.mean_us = cli.get_double("service-mean-us", 5000.0);
  config.service.cv = cli.get_double("service-cv", 1.5);
  config.service.pareto_shape = cli.get_double("pareto-shape", 2.2);

  config.arrival.kind =
      workload::parse_arrival_kind(cli.get("arrival", "poisson"));
  if (cli.has("rate")) {
    config.arrival.rate_rps = cli.get_double("rate", 0.0);
  } else {
    // Utilization is offered load over the whole cluster's capacity.
    config.arrival.rate_rps =
        static_cast<double>(config.nodes) *
        serve::rate_for_utilization(config.topo, config.cores,
                                    cli.get_double("utilization", 0.7),
                                    config.service.mean_us);
  }

  config.duration =
      static_cast<SimTime>(cli.get_double("duration-s", 10.0) * kSec);
  config.warmup =
      static_cast<SimTime>(cli.get_double("warmup-s", 1.0) * kSec);
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  config.rebalance.enabled = cli.get_bool("rebalance", true);
  config.rebalance.epoch = static_cast<SimTime>(
      cli.get_double("rebalance-epoch-ms", 250.0) * kMsec);
  config.rebalance.threshold = cli.get_double("rebalance-threshold", 0.5);
  config.rebalance.cooldown_epochs =
      static_cast<int>(cli.get_int("rebalance-cooldown", 2));

  // Per-node perturbation: --perturb-node=ID applies --perturb's timeline
  // to that node only (default node 0).
  if (cli.has("perturb")) {
    const int node = static_cast<int>(cli.get_int("perturb-node", 0));
    config.node_perturb[node] =
        perturb::PerturbTimeline::parse_specs(cli.get("perturb"));
  }
  return config;
}

int cluster_main(const Cli& cli, std::string_view tool) {
  ClusterConfig config = parse_cluster_config(cli);

  const std::string trace_out = cli.get("trace-out");
  const std::string report_json = cli.get("report-json");
  obs::RunRecorder recorder;
  const bool record = !trace_out.empty() || !report_json.empty();
  if (record) {
    recorder.set_meta("tool", std::string(tool));
    recorder.set_meta("mode", "cluster");
    recorder.set_meta("machine", config.topo.name());
    recorder.set_meta("nodes", std::to_string(config.nodes));
    recorder.set_meta("pools", std::to_string(config.nodes *
                                              config.pools_per_node));
    recorder.set_meta("policy", to_string(config.policy));
    recorder.set_meta("dispatch", to_string(config.dispatch));
    recorder.set_meta("seed", std::to_string(config.seed));
    recorder.set_meta("rebalance",
                      config.rebalance.enabled ? "on" : "off");
    config.recorder = &recorder;
  }

  const int repeats = static_cast<int>(cli.get_int("repeats", 1));
  const int jobs = resolve_jobs(static_cast<int>(cli.get_int("jobs", 0)));
  const auto wall_start = std::chrono::steady_clock::now();
  const ClusterResult result = run_cluster_repeats(config, repeats, jobs);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const ClusterStats& s = result.stats;

  Table table({"metric", "value"});
  table.add_row({"nodes x pools",
                 std::to_string(config.nodes) + " x " +
                     std::to_string(config.pools_per_node)});
  table.add_row({"machine", config.topo.name()});
  table.add_row({"policy (per node)", to_string(config.policy)});
  table.add_row({"dispatch",
                 config.dispatch == ClusterDispatch::JsqD
                     ? "jsq(" + std::to_string(config.jsq_d) + ")"
                     : to_string(config.dispatch)});
  table.add_row({"hop (us)", std::to_string(config.hop)});
  table.add_row({"rebalancer",
                 config.rebalance.enabled ? "on" : "off"});
  if (repeats > 1) table.add_row({"replicas", std::to_string(repeats)});
  {
    std::ostringstream rate;
    rate << config.arrival.rate_rps;
    table.add_row({"arrival rate (req/s)", rate.str()});
  }
  table.add_row({"requests (generated)", std::to_string(result.generated)});
  table.add_row({"offered / admitted / dropped",
                 std::to_string(s.offered) + " / " + std::to_string(s.admitted) +
                     " / " + std::to_string(s.dropped)});
  table.add_row({"completed", std::to_string(s.completed)});
  table.add_row({"drop rate %", Table::num(100.0 * s.drop_rate(), 2)});
  table.add_row({"goodput (req/s)", Table::num(result.goodput_rps, 1)});
  table.add_row({"latency p50 (ms)", Table::num(s.latency.percentile(50) / 1e6, 2)});
  table.add_row({"latency p99 (ms)", Table::num(s.latency.percentile(99) / 1e6, 2)});
  table.add_row({"latency p99.9 (ms)",
                 Table::num(s.latency.percentile(99.9) / 1e6, 2)});
  table.add_row({"queue wait p99 (ms)",
                 Table::num(s.queue_wait.percentile(99) / 1e6, 2)});
  table.add_row({"pool migrations", std::to_string(result.pool_migrations)});
  table.add_row({"peak imbalance", Table::num(result.peak_imbalance, 3)});
  table.add_row({"wall (s)", Table::num(wall_s, 2)});
  table.print(std::cout);

  bool io_ok = true;
  if (!trace_out.empty()) io_ok &= obs::write_trace_file(recorder, trace_out);
  if (!report_json.empty())
    io_ok &= obs::write_report_file(recorder, report_json);
  return io_ok ? 0 : 2;
}

}  // namespace speedbal::cluster
