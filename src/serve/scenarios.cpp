#include "serve/scenarios.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "perturb/sim_driver.hpp"
#include "serve/policy_stack.hpp"
#include "workload/generator.hpp"

namespace speedbal::serve {

double capacity(const Topology& topo, int cores) {
  const int k = cores > 0 ? cores : topo.num_cores();
  double cap = 0.0;
  for (CoreId c = 0; c < k; ++c) cap += topo.core(c).clock_scale;
  return cap;
}

double rate_for_utilization(const Topology& topo, int cores,
                            double utilization, double mean_service_us) {
  if (utilization <= 0.0 || mean_service_us <= 0.0)
    throw std::invalid_argument(
        "rate_for_utilization: utilization and mean service must be > 0");
  // capacity [work-units/s] = cap * 1e6 us/s; rate = util * capacity / mean.
  return utilization * capacity(topo, cores) * 1e6 / mean_service_us;
}

ServeResult run_serve(const ServeConfig& config) {
  if (config.warmup >= config.duration)
    throw std::invalid_argument("run_serve: warmup must be < duration");

  Simulator sim(config.topo, PolicyStack::sim_params(config.policy, config.sim),
                config.seed);
  obs::RunRecorder* recorder = config.recorder;
  sim.set_recorder(recorder);
  const int k = config.cores > 0 ? config.cores : config.topo.num_cores();
  const auto cores = workload::first_cores(k);

  // Scripted interference (DVFS steps, hotplug, hogs) over the serving run.
  std::unique_ptr<perturb::SimPerturbDriver> perturber;
  if (!config.perturb.empty()) {
    perturber = std::make_unique<perturb::SimPerturbDriver>(sim, config.perturb);
    perturber->set_recorder(recorder);
    perturber->arm();
  }

  // The per-machine balancer stack, exactly as in the batch experiments:
  // SPEED/PINNED/SHARE run on top of the Linux balancer, DWRR/ULE replace it.
  PolicyStack stack({config.policy, config.speed, config.linux_load,
                     config.dwrr, config.ule, config.share, config.adaptive});
  stack.attach_kernel(sim);

  ServeParams serve_params = config.serve;
  serve_params.warmup = config.warmup;
  ServeRuntime runtime(sim, serve_params);
  runtime.set_recorder(recorder);
  runtime.open(cores, stack.round_robin_launch());

  // User-level policy over the worker pool.
  stack.attach_user(sim, runtime.workers(), cores, recorder);

  // SHARE moves *work*, not workers: every adopted repartition re-weights
  // the dispatcher so each core's request stream tracks its measured
  // capacity share. A core's share splits evenly over the workers
  // round-robin-pinned to it. Effective when serve.dispatch == weighted
  // (the SERVE-SHARE default); other dispatchers ignore the weights.
  if (stack.share() != nullptr) {
    const int nw = serve_params.workers;
    const int nc = static_cast<int>(cores.size());
    stack.share()->set_sink([&runtime, nw, nc](const std::vector<double>& shares) {
      std::vector<double> weights(static_cast<std::size_t>(nw), 0.0);
      for (int w = 0; w < nw; ++w) {
        const int ci = w % nc;
        const int on_core = nw / nc + (ci < nw % nc ? 1 : 0);
        weights[static_cast<std::size_t>(w)] =
            shares[static_cast<std::size_t>(ci)] / on_core;
      }
      runtime.set_shard_weights(weights);
    });
  }

  // Adaptive SPEED also watches tail pressure: a recurring probe feeds
  // queued-requests-per-worker into the controller's congestion term at
  // balance-interval granularity. Deterministic and recorder-independent,
  // so the sampling-identity oracle still holds for adaptive runs.
  std::function<void()> congestion_probe;  // Outlives run_until (below).
  if (stack.adaptive() != nullptr) {
    const double nw = std::max(1, serve_params.workers);
    const SimTime period = std::max<SimTime>(config.speed.interval, msec(1));
    AdaptiveSpeedBalancer* adaptive = stack.adaptive();
    congestion_probe = [&sim, &runtime, &congestion_probe, adaptive, nw,
                        period] {
      adaptive->observe_congestion(runtime.total_queued() / nw);
      sim.schedule_after(period, congestion_probe);
    };
    sim.schedule_after(period, congestion_probe);
  }

  if (config.on_run_start) config.on_run_start(sim, runtime);

  LoadGenerator gen(sim, runtime, config.arrival, config.service,
                    config.duration, config.warmup, config.seed);
  gen.start();

  sim.run_until(config.duration);
  runtime.close();
  if (config.on_run_end) config.on_run_end(sim, runtime);

  ServeResult result;
  result.stats = runtime.stats();
  result.generated = gen.generated();
  result.goodput_rps =
      result.stats.goodput_rps(config.duration - config.warmup);
  result.total_migrations = sim.metrics().migration_count();
  result.migrations_by_cause = sim.metrics().migration_counts_by_cause();

  if (recorder != nullptr) {
    if (config.export_result) export_result_to_recorder(result, *recorder);
    // Needs the live simulation (segments + migration tallies), so it
    // cannot be hoisted out of the run like the result-level summary.
    export_run_to_recorder(sim.metrics(), *recorder);
  }
  return result;
}

void export_result_to_recorder(const ServeResult& result,
                               obs::RunRecorder& rec) {
  rec.add_latency_histogram("request_latency", result.stats.latency);
  rec.add_latency_histogram("queue_wait", result.stats.queue_wait);
  rec.set_counter("serve.offered", result.stats.offered);
  rec.set_counter("serve.admitted", result.stats.admitted);
  rec.set_counter("serve.completed", result.stats.completed);
  rec.set_counter("serve.dropped", result.stats.dropped);
  rec.set_counter("serve.max_queue_depth", result.stats.max_queue_depth);
  rec.set_counter("serve.generated", result.generated);
}

ServeResult run_serve_repeats(const ServeConfig& config, int repeats,
                              int jobs) {
  // Histograms merge without re-recording samples.
  return run_replicas(
      config, repeats, jobs, run_serve,
      [](ServeResult& out, const ServeResult& run) {
        out.stats.offered += run.stats.offered;
        out.stats.admitted += run.stats.admitted;
        out.stats.dropped += run.stats.dropped;
        out.stats.completed += run.stats.completed;
        out.stats.max_queue_depth =
            std::max(out.stats.max_queue_depth, run.stats.max_queue_depth);
        out.stats.latency.merge(run.stats.latency);
        out.stats.queue_wait.merge(run.stats.queue_wait);
        out.generated += run.generated;
        out.total_migrations += run.total_migrations;
        for (const auto& [cause, n] : run.migrations_by_cause)
          out.migrations_by_cause[cause] += n;
      });
}

}  // namespace speedbal::serve
