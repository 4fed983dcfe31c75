#pragma once

// Shared plumbing for the figure/table reproduction harnesses. Every bench
// binary prints (a) the paper's reported shape for the experiment and (b)
// the regenerated rows/series, through the same Table formatter, so that
// EXPERIMENTS.md can quote either verbatim.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenarios.hpp"
#include "perturb/adaptation.hpp"
#include "serve/scenarios.hpp"
#include "topo/presets.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace speedbal::bench {

/// Shared latency-percentile reporting: every bench that prints tail
/// latency uses the same columns, formatted from a LatencyHistogram (ns)
/// in milliseconds.
inline const std::vector<std::string> kLatencyCols = {"p50 ms", "p95 ms",
                                                      "p99 ms", "p99.9 ms"};

inline std::vector<std::string> latency_cells(const LatencyHistogram& h,
                                              int digits = 2) {
  std::vector<std::string> out;
  out.reserve(kLatencyCols.size());
  for (const double p : {50.0, 95.0, 99.0, 99.9})
    out.push_back(Table::num(h.percentile(p) / 1e6, digits));
  return out;
}

/// Cache of single-core baselines keyed by (machine, benchmark, threads):
/// several series in one figure share the same denominator.
class SerialBaselines {
 public:
  double get(const Topology& topo, const NpbProfile& prof, int nthreads,
             std::uint64_t seed = 42) {
    const std::string key =
        topo.name() + "/" + prof.full_name() + "/" + std::to_string(nthreads);
    auto it = cache_.find(key);
    if (it == cache_.end())
      it = cache_.emplace(key, scenarios::serial_runtime_s(topo, prof, nthreads, seed))
               .first;
    return it->second;
  }

 private:
  std::map<std::string, double> cache_;
};

inline void print_paper_note(std::string_view figure, std::string_view claim) {
  std::cout << "Reproduces " << figure << ".\nPaper's reported shape: " << claim
            << "\n";
}

/// Standard bench flags: --repeats, --seed, --quick (halves the sweep),
/// --jobs=N (replica parallelism; default hardware concurrency — results
/// are byte-identical for any value, so jobs is deliberately not part of
/// the JSON report), --report-json=FILE (machine-readable mirror of the
/// printed tables).
struct BenchArgs {
  int repeats = 5;
  std::uint64_t seed = 42;
  int jobs = 1;
  bool quick = false;
  std::string report_json;

  /// Exits with status 2 on a malformed number, naming the flag.
  static BenchArgs parse(int argc, char** argv) {
    const Cli cli(argc, argv);
    BenchArgs args;
    try {
      args.repeats = static_cast<int>(cli.get_int("repeats", args.repeats));
      args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
      args.jobs = resolve_jobs(static_cast<int>(cli.get_int("jobs", 0)));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      std::exit(2);
    }
    args.quick = cli.get_bool("quick", false);
    args.report_json = cli.get("report-json");
    return args;
  }
};

/// Mean over `repeats` replicas of a per-replica runtime, executed up to
/// `jobs`-way parallel. `body(rep)` must be independent across reps;
/// summation happens in replica order so the mean is bit-for-bit identical
/// for any `jobs`.
inline double mean_over_repeats(int jobs, int repeats,
                                const std::function<double(int)>& body) {
  std::vector<double> vals(static_cast<std::size_t>(repeats), 0.0);
  parallel_for(jobs, static_cast<std::size_t>(repeats),
               [&](std::size_t rep) { vals[rep] = body(static_cast<int>(rep)); });
  double sum = 0.0;
  for (const double v : vals) sum += v;
  return sum / static_cast<double>(repeats);
}

/// The step-response experiment of resilience_adaptation and
/// adaptive_ablation: a long-running SPMD job (8 threads on 8 cores, yield
/// barriers, 300ms phases) that `horizon` ends, with the perturbations of
/// `spec` (perturb::parse_specs). The caller sets the policy.
inline ExperimentConfig step_config(std::string name, const char* spec,
                                    SimTime horizon, int repeats,
                                    std::uint64_t seed, int jobs) {
  ExperimentConfig cfg;
  cfg.topo = presets::generic(8);
  cfg.repeats = repeats;
  cfg.seed = seed;
  cfg.time_cap = horizon;
  cfg.app.name = std::move(name);
  cfg.app.nthreads = 8;
  cfg.app.phases = 1000000;  // Never finishes: the horizon ends the run.
  cfg.app.work_per_phase_us = 300000.0;
  cfg.app.work_jitter = 0.05;
  cfg.app.barrier.policy = WaitPolicy::Yield;
  cfg.jobs = jobs;  // on_run_end only touches its repeat's slot.
  cfg.perturb = perturb::PerturbTimeline::parse_specs(spec);
  return cfg;
}

/// Phase throughput around a perturbation, averaged over a run's repeats:
/// `pre` over the runs that reach the perturbation, the rest over the runs
/// whose throughput re-converged (0 when none did).
struct StepResponse {
  int runs = 0;
  int converged = 0;
  double pre = 0.0;         ///< Undisturbed phases/s.
  double steady = 0.0;      ///< Post-step phases/s.
  double latency_ms = 0.0;  ///< Perturbation to re-convergence.
  double disruption = 0.0;  ///< Integral of |throughput - steady|, phases.
  /// Post-step throughput as a share of the undisturbed rate.
  double recovered_pct() const {
    return pre > 0.0 && converged > 0 ? 100.0 * steady / pre : 0.0;
  }
};

/// Run `cfg` (from step_config) and analyse each repeat's windowed phase
/// throughput, a 200ms-window series rebuilt from the barrier-to-barrier
/// times: each phase's unit of progress is attributed fractionally to the
/// windows it spans, so the series is smooth at any phase length.
inline StepResponse run_step_response(ExperimentConfig cfg,
                                      SimTime perturb_at) {
  const SimTime window = msec(200);
  const SimTime horizon = cfg.time_cap;
  const auto n_windows = static_cast<std::size_t>(horizon / window);
  std::vector<std::vector<double>> series(
      static_cast<std::size_t>(cfg.repeats));
  cfg.on_run_end = [&](Simulator&, SpmdApp& app, int rep) {
    auto& s = series[static_cast<std::size_t>(rep)];
    s.assign(n_windows, 0.0);
    SimTime t = app.start_time();
    SimTime last_done = t;
    for (const SimTime dur : app.phase_times()) {
      // One phase of progress, spread uniformly over its span [t, t+dur):
      // each overlapped window receives its share of the phase.
      const SimTime t0 = t;
      t += dur;
      last_done = t;
      if (dur <= 0) continue;
      for (SimTime w = (t0 / window) * window; w < t && w < horizon;
           w += window) {
        const SimTime lo = std::max(t0, w);
        const SimTime hi = std::min({t, w + window, horizon});
        if (hi > lo)
          s[static_cast<std::size_t>(w / window)] +=
              static_cast<double>(hi - lo) / static_cast<double>(dur);
      }
    }
    // Drop windows past the last finished phase: the in-flight phase's
    // progress is unknown and would read as a spurious throughput dip.
    s.resize(std::min(s.size(), static_cast<std::size_t>(last_done / window)));
    for (auto& v : s) v /= to_sec(window);  // Phase shares -> phases/s.
  };
  run_experiment(cfg);

  // Skip the first second of each run when estimating the undisturbed
  // throughput: fork placement and the first balance passes ramp it up.
  const auto warmup = static_cast<std::size_t>(sec(1) / window);
  const auto pre_end = static_cast<std::size_t>(perturb_at / window);
  StepResponse out;
  double pre_sum = 0.0, steady_sum = 0.0, latency_sum = 0.0,
         disruption_sum = 0.0;
  for (const auto& s : series) {
    if (static_cast<SimTime>(s.size()) * window <= perturb_at) continue;
    ++out.runs;
    double pre = 0.0;
    for (std::size_t i = warmup; i < pre_end; ++i) pre += s[i];
    pre_sum += pre / static_cast<double>(pre_end - warmup);
    // 10% band: phase-granular throughput is inherently noisier than
    // the per-interval speed series (one late thread moves a window).
    const auto r = perturb::analyze_step_response(s, window, perturb_at,
                                                  /*tolerance=*/0.10);
    if (!r.converged) continue;
    ++out.converged;
    steady_sum += r.steady_value;
    latency_sum += static_cast<double>(r.latency) / 1000.0;
    disruption_sum += r.imbalance_integral;
  }
  if (out.runs > 0) out.pre = pre_sum / out.runs;
  if (out.converged > 0) {
    out.steady = steady_sum / out.converged;
    out.latency_ms = latency_sum / out.converged;
    out.disruption = disruption_sum / out.converged;
  }
  return out;
}

/// The serving DVFS cell of serve_tail_latency and adaptive_ablation: an
/// open-loop Poisson stream of exp 5 ms requests on `cores` cores of
/// `topo`, round-robin dispatch to busy-poll workers, and three cores
/// throttled to half speed at 100 ms. `utilization` is of the
/// post-throttle capacity. The caller sets the policy.
inline serve::ServeConfig dvfs_serve_config(const Topology& topo, int cores,
                                            int workers, double utilization,
                                            SimTime duration,
                                            std::uint64_t seed) {
  // Capacity after the throttle events: cores 0-2 run at half speed.
  const double post_dvfs_capacity = serve::capacity(topo, cores) - 3 * 0.5;
  serve::ServeConfig config;
  config.topo = topo;
  config.cores = cores;
  config.serve.workers = workers;
  config.serve.queue_capacity = 64;
  // Round-robin dispatch: oblivious routing keeps the dispatch layer from
  // masking placement effects — the balancer under test is the variable.
  config.serve.dispatch = serve::DispatchPolicy::RoundRobin;
  // Busy-poll workers (the high-performance runtime configuration, and the
  // serving analogue of the paper's yield-waiting barriers): run-queue
  // lengths stay flat, so only a speed signal reveals the throttled cores.
  config.serve.idle = serve::IdleMode::Yield;
  config.service.kind = workload::ServiceKind::Exp;
  config.service.mean_us = 5000.0;
  config.arrival.kind = workload::ArrivalKind::Poisson;
  config.arrival.rate_rps =
      utilization * post_dvfs_capacity * 1e6 / config.service.mean_us;
  config.duration = duration;
  config.warmup = duration / 5;
  config.seed = seed;
  // Thermal throttling early in the run: three cores drop to half speed, so
  // nearly the whole measured window runs on a heterogeneous machine.
  config.perturb = perturb::PerturbTimeline::parse_specs(
      "at=100ms dvfs core=0 scale=0.5; at=100ms dvfs core=1 scale=0.5; "
      "at=100ms dvfs core=2 scale=0.5");
  return config;
}

/// Mirrors a bench binary's printed tables into a flat JSON run report when
/// --report-json=FILE was passed. Usage: replace `table.print(std::cout)`
/// with `report.emit("series name", table)`; the file is written on
/// destruction:
///   {"bench": "...", "repeats": N, "seed": N,
///    "tables": {"series name": [{col: value, ...}, ...]}}
class BenchReport {
 public:
  BenchReport(std::string bench_name, BenchArgs args)
      : name_(std::move(bench_name)), args_(std::move(args)) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Print the table to stdout and record it for the JSON report.
  void emit(const std::string& title, const Table& table) {
    table.print(std::cout);
    if (!args_.report_json.empty()) tables_.emplace_back(title, table);
  }

  /// Flat name->value map written as a top-level "metrics" object; the
  /// regression gate (micro_hotpath --check-against) reads this back, so
  /// record every metric higher-is-better.
  void set_metrics(std::map<std::string, double> metrics) {
    metrics_ = std::move(metrics);
  }

  ~BenchReport() {
    if (args_.report_json.empty()) return;
    std::ofstream os(args_.report_json);
    if (!os) {
      std::cerr << name_ << ": cannot open report file '" << args_.report_json
                << "'\n";
      return;
    }
    JsonWriter w(os);
    w.begin_object();
    w.kv("bench", name_);
    w.kv("repeats", args_.repeats);
    w.kv("seed", static_cast<std::int64_t>(args_.seed));
    w.kv("quick", args_.quick);
    if (!metrics_.empty()) {
      w.key("metrics").begin_object();
      for (const auto& [key, value] : metrics_) w.kv(key, value);
      w.end_object();
    }
    w.key("tables").begin_object();
    for (const auto& [title, table] : tables_) {
      w.key(title);
      table.write_json(w);
    }
    w.end_object();
    w.end_object();
    os << "\n";
  }

 private:
  std::string name_;
  BenchArgs args_;
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, Table>> tables_;
};

}  // namespace speedbal::bench
