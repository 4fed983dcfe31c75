#include "core/scenarios.hpp"

#include <algorithm>

#include "workload/generator.hpp"

namespace speedbal::scenarios {

ExperimentConfig npb_config(const Topology& topo, const NpbProfile& prof,
                            int nthreads, int cores, Setup setup, int repeats,
                            std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.topo = topo;
  cfg.cores = cores;
  cfg.repeats = repeats;
  cfg.seed = seed;

  BarrierConfig barrier = workload::upc_yield_barrier();
  switch (setup) {
    case Setup::OnePerCore:
      nthreads = cores;
      cfg.policy = Policy::Pinned;
      break;
    case Setup::Pinned:
      cfg.policy = Policy::Pinned;
      break;
    case Setup::LoadYield:
      cfg.policy = Policy::Load;
      break;
    case Setup::LoadSleep:
      cfg.policy = Policy::Load;
      barrier = workload::usleep_barrier();
      break;
    case Setup::SpeedYield:
      cfg.policy = Policy::Speed;
      break;
    case Setup::SpeedSleep:
      cfg.policy = Policy::Speed;
      barrier = workload::usleep_barrier();
      break;
    case Setup::Dwrr:
      cfg.policy = Policy::Dwrr;
      break;
    case Setup::FreeBsd:
      cfg.policy = Policy::Ule;
      break;
  }
  cfg.app = prof.to_spec(nthreads, barrier);
  // NUMA blocking only matters (and only applies) on NUMA machines.
  cfg.speed.block_numa = topo.num_numa_nodes() > 1;
  return cfg;
}

ExperimentResult run_npb(const Topology& topo, const NpbProfile& prof,
                         int nthreads, int cores, Setup setup, int repeats,
                         std::uint64_t seed, int jobs) {
  auto cfg = npb_config(topo, prof, nthreads, cores, setup, repeats, seed);
  cfg.jobs = jobs;
  return run_experiment(cfg);
}

double serial_runtime_s(const Topology& topo, const NpbProfile& prof,
                        int nthreads, std::uint64_t seed) {
  auto cfg = npb_config(topo, prof, nthreads, /*cores=*/1, Setup::Pinned,
                        /*repeats=*/1, seed);
  const auto result = run_experiment(cfg);
  return result.mean_runtime();
}

}  // namespace speedbal::scenarios
