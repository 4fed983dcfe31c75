// Command-line front end for the cluster-scale serving simulation:
//
//   clustersim [--nodes=16] [--pools-per-node=1] [--topo=generic4]
//              [--cores=N] [--policy=SPEED] [--workers=N] [--queue-cap=64]
//              [--dispatch=jsq] [--jsq-d=2] [--hop-us=200]
//              [--node-admission-cap=0] [--pool-dispatch=jsq] [--idle=sleep]
//              [--adaptive]
//              [--arrival=poisson] [--rate=RPS | --utilization=0.7]
//              [--service=exp] [--service-mean-us=5000] [--service-cv=1.5]
//              [--duration-s=10] [--warmup-s=1] [--seed=42]
//              [--repeats=1] [--jobs=N]
//              [--rebalance=1] [--rebalance-epoch-ms=250]
//              [--rebalance-threshold=0.5] [--rebalance-cooldown=2]
//              [--perturb=SPECS] [--perturb-node=0]
//              [--trace-out=FILE] [--report-json=FILE] [--log-level=LVL]
//
// Simulates a cluster of --nodes machines (each its own Simulator running
// the per-node balancing policy) behind a frontend that dispatches requests
// over the worker pools with --dispatch (rr / least-loaded / jsq with
// --jsq-d sampling). Every delivery and response pays a --hop-us network
// hop. A global rebalancer measures the fractional load imbalance every
// --rebalance-epoch-ms and, past --rebalance-threshold (with a cooldown),
// migrates a whole pool from the most- to the least-loaded node.
//
// --perturb applies a scripted interference timeline (DVFS, hogs, hotplug)
// to the single node named by --perturb-node — the scenario the rebalancer
// exists for. --rebalance=0 disables migration for A/B comparison.
//
// Listing flags (print one name per line and exit):
//   --list-policies --list-dispatch --list-arrivals --list-services
//
// --repeats=R merges R salted-seed replicas; --jobs=N runs them N-way
// parallel with output byte-identical for any N.

#include <cstdio>

#include "cluster/cli.hpp"
#include "serve/cli.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace speedbal;
  try {
    const Cli cli(argc, argv);
    if (serve::print_listing(cli, cluster::kClusterDispatchNames.names))
      return 0;
    if (cli.has("log-level"))
      set_log_level(kLogLevelNames.parse(cli.get("log-level")));
    return cluster::cluster_main(cli, "clustersim");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clustersim: %s\n", e.what());
    return 2;
  }
}
