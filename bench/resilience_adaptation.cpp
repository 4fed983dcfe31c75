// Adaptation-latency benchmark: how quickly each balancing policy recovers
// application throughput after a scripted perturbation (cpu-hog start,
// DVFS clock drop, core hotplug-out) lands mid-run. This is the resilience
// counterpart of the paper's steady-state figures: Section 4 argues speed
// balancing reacts within a few balance intervals because it observes the
// effect (thread speed) rather than the cause (queue length), which a
// yield-barrier workload hides from the Linux load balancer entirely.
//
// Method: a long-running SPMD job (one thread per core, yield barriers,
// 300ms phases so the balancers get several intervals per phase) executes
// fixed-size phases; the barrier-to-barrier completion times give a
// windowed phase-throughput series for any policy, no balancer
// instrumentation needed — each phase's unit of progress is attributed
// fractionally to the windows it spans, so the series is smooth at any
// phase length. The perturbation lands at t=2s via the perturb timeline;
// perturb::analyze_step_response then reports the re-convergence latency
// (time until the series stays within 10% of its post-step steady value)
// and the disruption integral |throughput - steady| dt.

#include <iostream>
#include <vector>

#include "bench_util.hpp"

using namespace speedbal;

namespace {

struct Scenario {
  const char* name;
  const char* spec;  ///< Compact perturbation spec (perturb::parse_specs).
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::BenchReport report("resilience_adaptation", args);
  bench::print_paper_note(
      "Section 4 / Section 6.3 (resilience extension)",
      "Speed balancing re-converges within a few balance intervals after\n"
      "interference appears; queue-length balancing cannot even see a\n"
      "cpu-hog through yield barriers and never recovers the lost share.");

  const SimTime horizon = args.quick ? sec(6) : sec(10);
  const SimTime perturb_at = sec(2);
  const int repeats = args.quick ? 2 : args.repeats;

  const std::vector<Scenario> scenarios = {
      {"cpu-hog step", "at=2s hog-start core=0"},
      {"dvfs half-speed", "at=2s dvfs core=0 scale=0.5"},
      {"core offline", "at=2s offline core=1"},
  };
  const std::vector<Policy> policies = {Policy::Speed, Policy::Load,
                                        Policy::Pinned};

  print_heading(std::cout,
                "Adaptation latency after a perturbation at t=2s "
                "(8 threads / 8 cores, yield barriers, 300ms phases)");

  for (const auto& scenario : scenarios) {
    std::cout << scenario.name << "  [" << scenario.spec << "]\n";
    Table table({"policy", "pre ph/s", "steady ph/s", "recovered%",
                 "converged", "latency ms", "disruption ph"});
    for (const Policy policy : policies) {
      ExperimentConfig cfg = bench::step_config(
          "resilience", scenario.spec, horizon, repeats, args.seed, args.jobs);
      cfg.policy = policy;
      const bench::StepResponse r = bench::run_step_response(cfg, perturb_at);
      table.add_row({to_string(policy), Table::num(r.pre, 2),
                     Table::num(r.steady, 2),
                     r.pre > 0.0 ? Table::num(r.recovered_pct(), 0) : "-",
                     std::to_string(r.converged) + "/" +
                         std::to_string(r.runs),
                     r.converged > 0 ? Table::num(r.latency_ms, 0) : "never",
                     Table::num(r.disruption, 1)});
    }
    report.emit(scenario.name, table);
    std::cout << "\n";
  }
  std::cout << "(recovered% = post-perturbation steady throughput relative to\n"
               " the undisturbed rate; latency = time from the perturbation\n"
               " until throughput stays within 10% of its new steady value;\n"
               " disruption = integral of |throughput - steady| afterwards.\n"
               " A fast latency at a low recovered% means the policy settled\n"
               " quickly into a degraded state, not that it adapted well.)\n";
  return 0;
}
