// Tail latency under speed balancing: an open-loop Poisson stream is served
// by a worker pool on a machine whose cores throttle mid-run (DVFS), and the
// SPEED / LOAD / PINNED policies place the workers. The paper's thesis
// applied to serving: balancing run-queue *lengths* on cores of unequal
// speed leaves some workers slow, and open-loop arrivals turn slow workers
// straight into tail latency; balancing on *speed* does not.
//
// Sweep: offered load (utilization of the post-throttle capacity) x policy,
// reporting p50/p95/p99/p99.9 sojourn time, drop rate, and goodput.
//
//   serve_tail_latency [--quick] [--seed=42] [--report-json=FILE]
//                      [--duration-s=10] [--workers=16] [--cores=8]
//                      [--repeats=5] [--jobs=N]
//
// Each cell pools --repeats salted replicas (histograms merged exactly);
// --jobs runs replicas in parallel without changing any number printed.

#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace speedbal;

struct Cell {
  serve::ServeResult result;
  double rate_rps = 0.0;
};

Cell run_cell(const Topology& topo, int cores, int workers, Policy policy,
              double utilization, SimTime duration, std::uint64_t seed,
              int repeats, int jobs) {
  serve::ServeConfig config = bench::dvfs_serve_config(
      topo, cores, workers, utilization, duration, seed);
  config.policy = policy;

  Cell cell;
  cell.rate_rps = config.arrival.rate_rps;
  // Replicated cells: per-replica latency histograms are combined with
  // LatencyHistogram::merge (exact bucket-wise addition), so the percentile
  // columns below summarize the pooled distribution, not one lucky run.
  cell.result = serve::run_serve_repeats(config, repeats, jobs);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speedbal;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const Cli cli(argc, argv);
  const int cores = static_cast<int>(cli.get_int("cores", 8));
  const int workers = static_cast<int>(cli.get_int("workers", 2 * cores));
  const SimTime duration = static_cast<SimTime>(
      cli.get_double("duration-s", args.quick ? 4.0 : 10.0) * kSec);

  const Topology topo = presets::generic(cores);

  bench::print_paper_note(
      "the serving-workload analogue of Figs. 5-6 (dynamic interference)",
      "under DVFS heterogeneity, LOAD leaves workers on throttled cores and "
      "their queues dominate the tail; SPEED migrates them and keeps p99 "
      "at or below LOAD's at every offered load");

  bench::BenchReport report("serve_tail_latency", args);

  std::vector<std::string> cols = {"util", "policy", "rate req/s"};
  for (const auto& c : bench::kLatencyCols) cols.push_back(c);
  cols.push_back("drop %");
  cols.push_back("goodput req/s");
  Table table(cols);

  for (const double util : {0.5, 0.8, 0.95}) {
    for (const Policy policy : {Policy::Speed, Policy::Load, Policy::Pinned}) {
      const Cell cell = run_cell(topo, cores, workers, policy, util, duration,
                                 args.seed, args.quick ? 1 : args.repeats,
                                 args.jobs);
      const serve::ServeStats& s = cell.result.stats;
      std::vector<std::string> row = {Table::num(util, 2), to_string(policy),
                                      Table::num(cell.rate_rps, 0)};
      for (auto& c : bench::latency_cells(s.latency)) row.push_back(std::move(c));
      row.push_back(Table::num(100.0 * s.drop_rate(), 2));
      row.push_back(Table::num(cell.result.goodput_rps, 1));
      table.add_row(row);
    }
  }
  report.emit("tail latency vs offered load (DVFS-throttled cores)", table);
  return 0;
}
