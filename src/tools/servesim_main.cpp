// Command-line front end for the request-serving subsystem:
//
//   servesim [--topo=tigerton] [--cores=4] [--policy=SPEED]
//            [--workers=8] [--queue-cap=64] [--dispatch=jsq] [--idle=sleep]
//            [--arrival=poisson] [--rate=RPS | --utilization=0.8]
//            [--service=exp] [--service-mean-us=5000] [--service-cv=1.5]
//            [--duration-s=10] [--warmup-s=1] [--seed=42]
//            [--repeats=1] [--jobs=N]
//            [--perturb=SPECS] [--perturb-json=FILE]
//            [--trace-out=FILE] [--report-json=FILE] [--log-level=LVL]
//
// Runs an open-loop load generator against a pool of worker threads whose
// placement is managed by the selected balancing policy, and reports
// tail-latency percentiles, goodput, and admission-control drops. Without
// --rate the arrival rate is derived from --utilization (offered load as a
// fraction of the managed cores' aggregate speed).
//
// --repeats=R runs R independent replicas (salted seeds) and merges their
// statistics; --jobs=N executes them N-way parallel (default: hardware
// concurrency) with output byte-identical for any N.
//
// Listing flags (print one name per line and exit):
//   --list-policies --list-dispatch --list-arrivals --list-services
//
// Bursty arrivals: --burst-factor, --burst-dwell-ms, --calm-dwell-ms.
// Diurnal arrivals: --diurnal-period-s, --diurnal-swing.
// Pareto service: --pareto-shape.

#include <cstdio>

#include "serve/cli.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace speedbal;
  try {
    const Cli cli(argc, argv);
    if (serve::print_listing(cli, serve::kDispatchPolicyNames.names)) return 0;
    if (cli.has("log-level"))
      set_log_level(kLogLevelNames.parse(cli.get("log-level")));
    return serve::serve_main(cli, "servesim");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servesim: %s\n", e.what());
    return 2;
  }
}
