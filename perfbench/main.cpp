// perfbench: the repository benchmark (see README.md for the metric map).
//
//   perfbench --workload=spmd|serve|cluster --seed=N --seconds=S --trace=0|1
//             [--out-dir=DIR]
//
// --trace=0 runs workload units through the public entry points for S host
// seconds and reports the end-to-end metrics (ops_per_s, setup_s,
// peak_rss_mb). --trace=1 runs the workload's fixed traced leg: each unit
// once through the public entry point and once assembled from public parts
// with a span per Simulator::step(); the two simulated fingerprints must
// match. It reports the per-layer metrics and writes the spans to
// DIR/<workload>.trace.json. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only when
// every output check passed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host_probe.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

double median(const std::vector<double>& xs) {
  return speedbal::percentile(xs, 50.0);
}

void print_distribution(const char* name, const char* unit,
                        const std::vector<double>& xs) {
  std::printf("%-13s median %.6g  q1 %.6g  q3 %.6g  n %zu  (%s)\n", name,
              speedbal::percentile(xs, 50.0), speedbal::percentile(xs, 25.0),
              speedbal::percentile(xs, 75.0), xs.size(), unit);
}

void print_fingerprint(int unit, const Fingerprint& fp) {
  std::printf("fingerprint (simulated) unit %d:", unit);
  for (const auto& [key, value] : fp) std::printf(" %s=%s", key.c_str(), value.c_str());
  std::printf("\n");
}

/// The result line: the last line of stdout.
void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

int end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  HostProbe probe;
  std::vector<UnitRun> units;
  std::vector<double> probes = {probe.time_once()};
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k == 0 || seconds_between(t0, Clock::now()) < seconds; ++k) {
    units.push_back(w.run(speedbal::replica_seed(seed, k)));
    probes.push_back(probe.time_once());
  }

  // ops_per_s is input units finished per host second of the measured
  // phases (a ratio of sums); the per-unit rates are printed as a
  // distribution beside it.
  std::vector<double> rates;
  std::vector<double> setups;
  std::vector<double> raw_rates;
  std::vector<double> raw_setups;
  double ops = 0.0;
  double run_s = 0.0;
  double raw_run_s = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (std::size_t k = 0; k < units.size(); ++k) {
    const UnitRun& u = units[k];
    const double scale = HostProbe::kReferenceSeconds /
                         (0.5 * (probes[k] + probes[k + 1]));
    ops += static_cast<double>(u.ops);
    run_s += u.run_s * scale;
    raw_run_s += u.run_s;
    raw_rates.push_back(static_cast<double>(u.ops) / u.run_s);
    rates.push_back(raw_rates.back() / scale);
    raw_setups.push_back(u.setup_s);
    setups.push_back(u.setup_s * scale);
    attempted += u.ops;
    std::printf("unit %zu: ops %lld  run_s %.6f  setup_s %.6g  probe_s %.6f\n", k,
                static_cast<long long>(u.ops), u.run_s, u.setup_s,
                0.5 * (probes[k] + probes[k + 1]));
    if (!u.failure.empty()) {
      failed += u.ops;
      std::printf("FAILED unit %zu: %s\n", k, u.failure.c_str());
    }
    if (static_cast<int>(k) < w.traced_units)
      print_fingerprint(static_cast<int>(k), u.fingerprint);
  }
  print_distribution("probe_s", "s per host speed probe", probes);
  print_distribution("unit ops/s", "1/s per unit, unscaled", raw_rates);
  print_distribution("ref ops/s", "1/s per unit, reference speed", rates);
  print_distribution("unit setup_s", "s per unit, unscaled", raw_setups);
  const double rss = peak_rss_mb();
  const std::vector<Metric> metrics = {
      {"ops_per_s", ops / run_s, "1/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", rss, "MB"},
  };
  std::printf("unscaled: ops_per_s %.6g  setup_s %.6g\n", ops / raw_run_s,
              median(raw_setups));
  for (const Metric& m : metrics)
    std::printf("%-14s %.10g  (%s)\n", m.name.c_str(), m.value, m.unit.c_str());
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int traced(const Workload& w, std::uint64_t seed, const std::string& out_dir,
           const std::vector<std::pair<std::string, std::string>>& host) {
  StepTrace trace;
  ClusterProbe probe;
  Counts total;
  double plain_s = 0.0;
  double traced_s = 0.0;
  double obs_self_ns = 0.0;
  double obs_export_ns = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (int k = 0; k < w.traced_units; ++k) {
    const std::uint64_t unit_seed = speedbal::replica_seed(seed, k);
    const UnitRun plain = w.run(unit_seed);
    const UnitRun t = w.traced(unit_seed, trace, probe);
    attempted += plain.ops + t.ops;
    for (const UnitRun* u : {&plain, &t}) {
      if (u->failure.empty()) continue;
      failed += u->ops;
      std::printf("FAILED unit %d: %s\n", k, u->failure.c_str());
    }
    print_fingerprint(k, plain.fingerprint);
    if (t.fingerprint != plain.fingerprint) {
      failed += t.ops;
      std::printf("FAILED unit %d: traced fingerprint differs:\n", k);
      print_fingerprint(k, t.fingerprint);
    }
    plain_s += plain.run_s;
    traced_s += t.run_s;
    obs_self_ns += plain.obs_self_ns;
    obs_export_ns += plain.obs_export_ns;
    total += t.counts;
  }

  // util.parallel_efficiency: spmd replicas at jobs=min(nproc, 4) vs jobs=1.
  int jobs = 0;
  double efficiency = 0.0;
  if (std::string(w.name) == "spmd") {
    jobs = std::min(online_cpus(), 4);
    if (jobs < 2) {
      std::printf("util.parallel_efficiency: not measured (nproc=%d)\n",
                  online_cpus());
      jobs = 1;
    } else {
      const ParallelLeg leg = run_parallel_leg(seed, 2 * jobs, jobs);
      attempted += 2 * leg.replicas;
      if (!leg.failure.empty()) {
        failed += leg.replicas;
        std::printf("FAILED parallel leg: %s\n", leg.failure.c_str());
      }
      efficiency = leg.wall_jobs1_s / leg.wall_jobsn_s / jobs;
      std::printf("util.parallel_efficiency: %d replicas, jobs=1 %.4f s, "
                  "jobs=%d %.4f s, aggregates identical: %s\n",
                  leg.replicas, leg.wall_jobs1_s, jobs, leg.wall_jobsn_s,
                  leg.failure.empty() ? "yes" : "NO");
    }
  }

  const auto& steps = trace.steps();
  auto pct = [&](double p) { return steps.count() > 0 ? steps.percentile(p) : 0.0; };
  const bool cluster = std::string(w.name) == "cluster";
  const double epoch_us =
      probe.epoch_us.empty() ? 0.0 : median(probe.epoch_us);
  const double setup_us_per_node =
      probe.setup_us_per_node.empty() ? 0.0 : median(probe.setup_us_per_node);
  const double us_per_request =
      cluster ? probe.run_s * 1e6 / probe.requests : 0.0;
  const double twin_us_per_request =
      cluster ? probe.twin_run_s * 1e6 / probe.twin_requests : 0.0;
  const std::vector<Metric> metrics = {
      {"sim.events", static_cast<double>(total.events), "count"},
      {"sim.step_ns_p50", pct(50.0), "ns"},
      {"sim.step_ns_p99", pct(99.0), "ns"},
      {"sim.other_step_ns", trace.other().mean_ns(), "ns"},
      {"sim.migrations", static_cast<double>(total.migrations), "count"},
      {"balance.passes", static_cast<double>(total.passes), "count"},
      {"balance.pass_step_ns", trace.pass().mean_ns(), "ns"},
      {"balance.pulls", static_cast<double>(total.pulls), "count"},
      {"balance.pulls_per_pass",
       total.passes > 0 ? static_cast<double>(total.pulls) /
                              static_cast<double>(total.passes)
                        : 0.0,
       "ratio"},
      {"balance.kernel_migrations", static_cast<double>(total.kernel_migrations),
       "count"},
      {"serve.arrivals", static_cast<double>(total.arrivals), "count"},
      {"serve.arrival_step_ns", trace.arrival().mean_ns(), "ns"},
      {"serve.completions", static_cast<double>(total.completions), "count"},
      {"serve.completion_step_ns", trace.completion().mean_ns(), "ns"},
      {"serve.drops", static_cast<double>(total.drops), "count"},
      {"obs.self_pct", 100.0 * obs_self_ns * 1e-9 / plain_s, "%"},
      {"obs.export_pct", 100.0 * obs_export_ns * 1e-9 / plain_s, "%"},
      {"obs.spans", static_cast<double>(total.spans), "count"},
      {"cluster.node_events", cluster ? static_cast<double>(total.events) : 0.0,
       "count"},
      {"cluster.node_scaling",
       cluster ? us_per_request / twin_us_per_request : 0.0,
       "ratio"},
      {"cluster.epoch_us", epoch_us, "us"},
      {"cluster.setup_us_per_node", setup_us_per_node, "us"},
      {"cluster.pool_migrations", static_cast<double>(total.pool_migrations),
       "count"},
      {"util.parallel_efficiency", efficiency, "ratio"},
      {"util.parallel_jobs", static_cast<double>(jobs), "jobs"},
      {"trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0), "%"},
  };

  std::printf("traced leg: %d unit(s), untraced %.4f s, traced %.4f s, "
              "%lld steps (%lld pass, %lld arrival, %lld completion, %lld other)\n",
              w.traced_units, plain_s, traced_s,
              static_cast<long long>(steps.count()),
              static_cast<long long>(trace.pass().steps),
              static_cast<long long>(trace.arrival().steps),
              static_cast<long long>(trace.completion().steps),
              static_cast<long long>(trace.other().steps));
  if (cluster)
    std::printf("cluster: %.4f us/request at 256 nodes, %.4f at 16 nodes\n",
                us_per_request, twin_us_per_request);
  std::printf("balance.pulls_per_pass base: %lld passes\n",
              static_cast<long long>(total.passes));
  for (const Metric& m : metrics)
    std::printf("%-28s %.10g  (%s)\n", m.name.c_str(), m.value, m.unit.c_str());

  std::filesystem::create_directories(out_dir);
  const std::string path = out_dir + "/" + w.name + ".trace.json";
  if (!trace.write_chrome_trace(path, host))
    std::printf("warning: could not write %s\n", path.c_str());
  else
    std::printf("spans written to %s\n", path.c_str());

  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const speedbal::Cli cli(argc, argv,
                          {"workload", "seed", "seconds", "trace", "out-dir"});
  const Workload* w = find_workload(cli.get("workload"));
  const int trace = static_cast<int>(cli.get_int("trace", 0));
  const double seconds = cli.get_double("seconds", 10.0);
  if (w == nullptr || !cli.unknown().empty() || (trace != 0 && trace != 1) ||
      seconds <= 0.0) {
    std::string names;
    for (const auto& n : workload_names()) names += (names.empty() ? "" : "|") + n;
    std::fprintf(stderr,
                 "usage: perfbench --workload=%s --seed=N --seconds=S "
                 "--trace=0|1 [--out-dir=DIR]\n",
                 names.c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::vector<std::pair<std::string, std::string>> host = {
      {"workload", w->name},
      {"seed", std::to_string(seed)},
      {"nproc", std::to_string(online_cpus())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
  };
  std::printf("host:");
  for (const auto& [key, value] : host) std::printf(" %s=%s", key.c_str(), value.c_str());
  std::printf("\n");
  if (trace == 0) return end_to_end(*w, seed, seconds);
  return traced(*w, seed, cli.get("out-dir", ".bench_out"), host);
}
