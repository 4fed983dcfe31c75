// Command-line front end for the simulator:
//
//   simrun [--topo=tigerton] [--bench=ep.C] [--threads=16] [--cores=4]
//          [--setup=SPEED-YIELD] [--repeats=5] [--seed=42] [--jobs=N]
//          [--adaptive] [--trace-out=FILE] [--report-json=FILE]
//          [--log-level=LVL] [--perturb=SPECS] [--perturb-json=FILE]
//          [--list-setups]
//
// Runs the configuration and prints runtime statistics, the speedup
// against a single-core run, and migration counts. With --trace-out the
// first repeat is recorded as a Chrome trace-event file (open in
// chrome://tracing or https://ui.perfetto.dev); --report-json writes the
// flat JSON run report (speed timeline, decision counters).
//
// --jobs=N runs the repeats N-way parallel (default: hardware
// concurrency); every replica is an independent simulator with its own
// seed, and reports/traces are byte-identical for any N.
//
// --perturb takes semicolon-separated compact event specs, e.g.
//   --perturb="at=2s dvfs core=3 scale=0.6; at=4s offline core=1"
// --perturb-json loads the same timeline from a JSON file ({"events":
// [{"at_s": 2, "kind": "dvfs", "core": 3, "scale": 0.6}, ...]}).
// --list-setups prints the available setup names, one per line, and exits.
//
// --adaptive (SPEED setups, batch or serve) wraps the speed balancer in the
// online tuning controller: a bandit over a small portfolio of Section-5
// constant-sets plus a predictor that shortens the balance interval ahead
// of a forming imbalance. Query the trajectory with obsquery --tuning.
//
// --serve[=POLICY] (or --setup=SERVE-<POLICY>) switches to the
// request-serving mode: an open-loop load generator feeds a worker pool
// balanced by POLICY and the tool reports tail-latency percentiles,
// goodput, and drops. See servesim for the full serve flag reference —
// the two front ends share it.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "core/scenarios.hpp"
#include "hetero/setups.hpp"
#include "obs/recorder.hpp"
#include "perturb/timeline.hpp"
#include "serve/cli.hpp"
#include "topo/presets.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace speedbal;
  try {
    const Cli cli(argc, argv);
    if (cli.has("list-setups")) {
      for (const char* s : scenarios::kSetupNames.names) std::cout << s << "\n";
      // One serve scenario per balancing policy: SERVE-LOAD, SERVE-SPEED...
      for (const char* p : kPolicyNames.names)
        std::cout << "SERVE-" << p << "\n";
      // The asymmetric-machine presets carry their topology in the setup,
      // so each line says what machine it builds.
      for (const auto& s : hetero::hetero_setups())
        std::cout << s.name << "\t" << s.description << "\n";
      return 0;
    }
    if (cli.has("log-level"))
      set_log_level(kLogLevelNames.parse(cli.get("log-level")));
    if (cli.has("serve") || cli.get("setup").rfind("SERVE-", 0) == 0)
      return serve::serve_main(cli, "simrun");
    // A HETERO-* setup bundles the asymmetric machine with the policy; the
    // preset's topology wins over --topo, and one thread per core is the
    // default shape (the partition, not placement, is under test).
    const hetero::HeteroSetup* hs = hetero::find_hetero_setup(cli.get("setup"));
    const auto topo = presets::by_name(
        hs != nullptr ? hs->topo : cli.get("topo", "tigerton"));
    const auto prof = npb::by_name(cli.get("bench", "ep.C"));
    const int threads = static_cast<int>(
        cli.get_int("threads", hs != nullptr ? topo.num_cores() : 16));
    const int cores = static_cast<int>(cli.get_int("cores", topo.num_cores()));
    auto setup = scenarios::Setup::SpeedYield;
    if (hs == nullptr) {
      setup = scenarios::kSetupNames.parse(cli.get("setup", "SPEED-YIELD"));
    } else {
      switch (hs->policy) {
        case hetero::HeteroPolicy::Speed:
          setup = scenarios::Setup::SpeedYield;
          break;
        case hetero::HeteroPolicy::Load:
          setup = scenarios::Setup::LoadYield;
          break;
        // SHARE rides on the pinned scenario shape: round-robin pins with
        // the partitioner layered on by the Policy::Share override below.
        case hetero::HeteroPolicy::Share:
        case hetero::HeteroPolicy::ShareCount:
        case hetero::HeteroPolicy::Pinned:
          setup = scenarios::Setup::Pinned;
          break;
      }
    }
    const std::string setup_name =
        hs != nullptr ? hs->name : std::string(to_string(setup));
    const int repeats = static_cast<int>(cli.get_int("repeats", 5));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const int jobs = resolve_jobs(static_cast<int>(cli.get_int("jobs", 0)));
    const std::string trace_out = cli.get("trace-out");
    const std::string report_json = cli.get("report-json");

    perturb::PerturbTimeline timeline;
    if (cli.has("perturb"))
      timeline = perturb::PerturbTimeline::parse_specs(cli.get("perturb"));
    if (cli.has("perturb-json")) {
      auto from_file =
          perturb::PerturbTimeline::load_json_file(cli.get("perturb-json"));
      for (const auto& ev : from_file.events()) timeline.add(ev);
    }

    const double serial = scenarios::serial_runtime_s(topo, prof, threads, seed);

    auto config =
        scenarios::npb_config(topo, prof, threads, cores, setup, repeats, seed);
    if (hs != nullptr && (hs->policy == hetero::HeteroPolicy::Share ||
                          hs->policy == hetero::HeteroPolicy::ShareCount)) {
      config.policy = Policy::Share;
      config.share.source = hs->policy == hetero::HeteroPolicy::Share
                                ? hetero::ShareParams::Source::Speed
                                : hetero::ShareParams::Source::Count;
    }
    config.jobs = jobs;
    config.perturb = timeline;
    config.adaptive.enabled = cli.has("adaptive");
    obs::RunRecorder recorder;
    const bool record = !trace_out.empty() || !report_json.empty();
    if (record) {
      recorder.set_meta("tool", "simrun");
      recorder.set_meta("machine", topo.name());
      recorder.set_meta("benchmark", prof.full_name());
      recorder.set_meta("setup", setup_name);
      recorder.set_meta("threads", std::to_string(threads));
      recorder.set_meta("cores", std::to_string(cores));
      recorder.set_meta("seed", std::to_string(seed));
      if (config.adaptive.enabled) recorder.set_meta("adaptive", "1");
      if (!timeline.empty()) recorder.set_meta("perturb", timeline.to_specs());
      config.recorder = &recorder;
    }
    const auto result = run_experiment(config);

    Table table({"metric", "value"});
    table.add_row({"machine", topo.name()});
    table.add_row({"benchmark", prof.full_name()});
    table.add_row({"threads", std::to_string(threads)});
    table.add_row({"cores", std::to_string(cores)});
    table.add_row({"setup", setup_name});
    table.add_row({"runs", std::to_string(result.runs.size())});
    table.add_row({"mean runtime (s)", Table::num(result.mean_runtime(), 3)});
    table.add_row({"best/worst (s)", Table::num(result.best_runtime(), 3) +
                                         " / " + Table::num(result.worst_runtime(), 3)});
    table.add_row({"variation %", Table::num(result.variation_pct(), 1)});
    table.add_row({"speedup vs 1 core", Table::num(serial / result.mean_runtime(), 2)});
    table.add_row({"mean migrations", Table::num(result.mean_migrations(), 1)});
    {
      std::ostringstream by_cause;
      for (const auto& [cause, mean] : result.mean_migrations_by_cause()) {
        if (by_cause.tellp() > 0) by_cause << "  ";
        by_cause << to_string(cause) << ":" << Table::num(mean, 1);
      }
      table.add_row({"migrations by cause", by_cause.str()});
    }
    if (record) {
      const auto stats = obs::global_stats(recorder.timeline().snapshot());
      table.add_row({"speed samples", std::to_string(stats.samples)});
      table.add_row({"global speed mean", Table::num(stats.mean, 3)});
      table.add_row({"global speed variance", Table::num(stats.variance, 5)});
      std::ostringstream rejects;
      for (const auto& [name, count] : recorder.counters()) {
        if (name.rfind("pulls.rejected.", 0) != 0 || count == 0) continue;
        if (rejects.tellp() > 0) rejects << "  ";
        rejects << name.substr(std::string("pulls.rejected.").size()) << ":"
                << count;
      }
      table.add_row({"pulls performed",
                     std::to_string(recorder.counters()["pulls.performed"])});
      table.add_row({"pulls rejected", rejects.str()});
    }
    table.print(std::cout);

    bool io_ok = true;
    if (!trace_out.empty()) io_ok &= obs::write_trace_file(recorder, trace_out);
    if (!report_json.empty())
      io_ok &= obs::write_report_file(recorder, report_json);
    return io_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simrun: %s\n", e.what());
    return 2;
  }
}
