// Adaptive-controller ablation: the online tuner (bandit over the Section-5
// constant portfolio + dispersion predictor) against the fixed constant-sets
// it selects between. Three legs, each a regime where one fixed arm is known
// to be the wrong compromise:
//
//   1. resilience — the SPMD DVFS-step scenario from resilience_adaptation:
//      recovered throughput and re-convergence latency after a core halves
//      its clock. A fixed 100ms interval pays several intervals of lag; the
//      tuner is free to shorten it when dispersion spikes.
//   2. serve tail — the serving DVFS scenario from serve_tail_latency at one
//      utilization: p99 sojourn with busy-poll workers on a machine whose
//      cores throttle mid-run.
//   3. thermal sawtooth — cores throttle and recover on a cycle, so the
//      best constants differ between the quiet and the disturbed halves;
//      any single fixed arm is wrong half the time.
//
//   adaptive_ablation [--quick] [--seed=42] [--repeats=5] [--jobs=N]
//                     [--report-json=FILE]
//
// The acceptance bar for the adaptive controller is match-or-beat against
// the paper constants on recovered throughput (leg 1) and p99 (leg 2); the
// report metrics encode both as adaptive/fixed ratios (higher is better).

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace speedbal;

namespace {

/// One speed-balancer configuration under test: a fixed constant-set, or
/// the adaptive controller over the default portfolio.
struct Variant {
  const char* name;
  bool adaptive = false;
  SpeedBalanceParams speed;  ///< Fixed constants / the adaptive base arm.
};

std::vector<Variant> variants() {
  Variant paper{"SPEED fixed(paper)", false, {}};
  // The fast arm of the portfolio run open-loop: what "just use aggressive
  // constants everywhere" costs in steady state.
  Variant aggressive{"SPEED fixed(aggressive)", false, {}};
  aggressive.speed.interval = msec(25);
  aggressive.speed.threshold = 0.8;
  aggressive.speed.post_migration_block = 1;
  aggressive.speed.shared_cache_block_scale = 0.5;
  Variant adaptive{"SPEED adaptive", true, {}};
  return {paper, aggressive, adaptive};
}

/// The step-response experiment of resilience_adaptation.cpp for one
/// variant and perturbation spec.
bench::StepResponse run_step(const Variant& v, const char* spec,
                             SimTime horizon, SimTime perturb_at, int repeats,
                             std::uint64_t seed, int jobs) {
  ExperimentConfig cfg = bench::step_config("adaptive-ablation", spec, horizon,
                                            repeats, seed, jobs);
  cfg.policy = Policy::Speed;
  cfg.speed = v.speed;
  cfg.adaptive.enabled = v.adaptive;
  cfg.adaptive.speed = v.speed;
  return bench::run_step_response(cfg, perturb_at);
}

/// One serve cell (the serve_tail_latency method at a single utilization).
serve::ServeResult run_serve_cell(const Variant& v, double utilization,
                                  SimTime duration, std::uint64_t seed,
                                  int repeats, int jobs) {
  const int cores = 8;
  serve::ServeConfig config =
      bench::dvfs_serve_config(presets::generic(cores), cores, 2 * cores,
                               utilization, duration, seed);
  config.policy = Policy::Speed;
  config.speed = v.speed;
  config.adaptive.enabled = v.adaptive;
  config.adaptive.speed = v.speed;
  return serve::run_serve_repeats(config, repeats, jobs);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::BenchReport report("adaptive_ablation", args);
  bench::print_paper_note(
      "Section 5 constants, made adaptive (tuning extension)",
      "The paper fixes T_s=0.9 / 100ms interval / 2-interval cooldown for\n"
      "all workloads. The adaptive controller tunes within that family\n"
      "online; the ablation shows it matches the best fixed arm per regime\n"
      "without knowing the regime in advance.");

  const int repeats = args.quick ? 2 : args.repeats;
  const SimTime horizon = args.quick ? sec(6) : sec(10);
  std::map<std::string, double> metrics;

  // --- Leg 1: SPMD DVFS step ------------------------------------------------
  print_heading(std::cout,
                "Recovered throughput after a DVFS step at t=2s "
                "(8 threads / 8 cores, yield barriers, 300ms phases)");
  Table step_table({"variant", "pre ph/s", "steady ph/s", "recovered%",
                    "converged", "latency ms"});
  double fixed_recovered = 0.0, adaptive_recovered = 0.0;
  for (const Variant& v : variants()) {
    const bench::StepResponse o =
        run_step(v, "at=2s dvfs core=0 scale=0.5", horizon, sec(2), repeats,
                 args.seed, args.jobs);
    step_table.add_row(
        {v.name, Table::num(o.pre, 2), Table::num(o.steady, 2),
         Table::num(o.recovered_pct(), 1),
         std::to_string(o.converged) + "/" + std::to_string(o.runs),
         o.converged > 0 ? Table::num(o.latency_ms, 0) : "never"});
    if (std::string(v.name) == "SPEED fixed(paper)")
      fixed_recovered = o.recovered_pct();
    if (v.adaptive) adaptive_recovered = o.recovered_pct();
  }
  report.emit("dvfs step (recovered throughput)", step_table);
  std::cout << "\n";

  // --- Leg 2: serve tail under DVFS -----------------------------------------
  print_heading(std::cout,
                "Serve p99 under mid-run DVFS (16 busy-poll workers on 8 "
                "cores, RR dispatch, 85% post-throttle load)");
  Table serve_table({"variant", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms",
                     "drop%", "goodput rps"});
  double fixed_p99 = 0.0, adaptive_p99 = 0.0;
  for (const Variant& v : variants()) {
    const serve::ServeResult r = run_serve_cell(
        v, 0.85, args.quick ? sec(4) : sec(10), args.seed, repeats, args.jobs);
    const auto ms = [&r](double p) {
      return r.stats.latency.percentile(p) / 1e6;
    };
    serve_table.add_row(
        {v.name, Table::num(ms(50), 2), Table::num(ms(95), 2),
         Table::num(ms(99), 2), Table::num(ms(99.9), 2),
         Table::num(100.0 * r.stats.drop_rate(), 2),
         Table::num(r.goodput_rps, 0)});
    if (std::string(v.name) == "SPEED fixed(paper)") fixed_p99 = ms(99);
    if (v.adaptive) adaptive_p99 = ms(99);
  }
  report.emit("serve dvfs (p99)", serve_table);
  std::cout << "\n";

  // --- Leg 3: thermal sawtooth ----------------------------------------------
  print_heading(std::cout,
                "Thermal sawtooth: cores throttle and recover on a cycle "
                "(steady phases/s over the disturbed run)");
  Table saw_table({"variant", "pre ph/s", "steady ph/s", "recovered%",
                   "converged", "latency ms"});
  for (const Variant& v : variants()) {
    // Two cores alternate between half and full clock from t=2s on; the
    // step-response analysis treats t>=2s as one long disturbed regime.
    const bench::StepResponse o = run_step(
        v,
        "at=2s dvfs core=0 scale=0.5; at=3s dvfs core=0 scale=1.0; "
        "at=3s dvfs core=1 scale=0.5; at=4s dvfs core=1 scale=1.0; "
        "at=4s dvfs core=0 scale=0.5; at=5s dvfs core=0 scale=1.0",
        horizon, sec(2), repeats, args.seed, args.jobs);
    saw_table.add_row(
        {v.name, Table::num(o.pre, 2), Table::num(o.steady, 2),
         Table::num(o.recovered_pct(), 1),
         std::to_string(o.converged) + "/" + std::to_string(o.runs),
         o.converged > 0 ? Table::num(o.latency_ms, 0) : "never"});
  }
  report.emit("thermal sawtooth", saw_table);
  std::cout << "\n";

  metrics["resilience_recovered_pct_fixed"] = fixed_recovered;
  metrics["resilience_recovered_pct_adaptive"] = adaptive_recovered;
  metrics["resilience_adaptive_over_fixed"] =
      fixed_recovered > 0.0 ? adaptive_recovered / fixed_recovered : 0.0;
  metrics["serve_p99_fixed_over_adaptive"] =
      adaptive_p99 > 0.0 ? fixed_p99 / adaptive_p99 : 0.0;
  report.set_metrics(metrics);

  std::cout << "(acceptance: adaptive >= fixed(paper) on recovered% and on\n"
               " p99, i.e. resilience_adaptive_over_fixed >= 1 and\n"
               " serve_p99_fixed_over_adaptive >= 1 in the report metrics.)\n";
  return 0;
}
