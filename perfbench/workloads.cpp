#include "workloads.hpp"

#include <cstdio>
#include <utility>

#include "balance/linux_load.hpp"
#include "balance/speed.hpp"
#include "cluster/cluster.hpp"
#include "core/scenarios.hpp"
#include "perturb/sim_driver.hpp"
#include "serve/loadgen.hpp"
#include "serve/policy_stack.hpp"
#include "serve/scenarios.hpp"
#include "topo/presets.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workload/generator.hpp"
#include "workload/npb.hpp"

namespace perfbench {
namespace {

using namespace speedbal;

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// DVFS step of cores [0, cores) to `scale` at `at`.
perturb::PerturbTimeline dvfs_step(SimTime at, int cores, double scale) {
  perturb::PerturbTimeline tl;
  for (int c = 0; c < cores; ++c) {
    perturb::PerturbEvent ev;
    ev.at = at;
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = scale;
    tl.add(ev);
  }
  return tl;
}

/// Record migration totals by cause in the fingerprint and the counts.
void add_migrations(const std::map<MigrationCause, std::int64_t>& by_cause,
                    UnitRun& u) {
  for (const auto& [cause, n] : by_cause) {
    u.fingerprint[std::string("migrations.") + to_string(cause)] =
        std::to_string(n);
    u.counts.migrations += n;
    if (cause == MigrationCause::SpeedBalancer) u.counts.pulls += n;
    if (cause == MigrationCause::LinuxPeriodic ||
        cause == MigrationCause::LinuxNewIdle ||
        cause == MigrationCause::LinuxPush)
      u.counts.kernel_migrations += n;
  }
}

// --- spmd -------------------------------------------------------------------

/// cg.B (1,500 barriers ~4 ms apart) with 16 threads on 12 tigerton cores
/// under SPEED-YIELD: the paper's N mod M != 0 case. One replica per unit.
ExperimentConfig spmd_config(std::uint64_t seed, int repeats = 1) {
  ExperimentConfig cfg = scenarios::npb_config(
      presets::tigerton(), npb::by_name("cg.B"), 16, 12,
      scenarios::Setup::SpeedYield, repeats, seed);
  cfg.jobs = 1;
  return cfg;
}

void spmd_outputs(const RunResult& r, std::int64_t events, UnitRun& u) {
  u.ops = 1;
  if (!r.completed) u.failure = "spmd: replica did not finish under the time cap";
  u.counts.events = events;
  u.fingerprint["completed"] = r.completed ? "1" : "0";
  u.fingerprint["makespan_s"] = exact(r.runtime_s);
  u.fingerprint["events"] = std::to_string(events);
  add_migrations(r.migrations_by_cause, u);
}

UnitRun run_spmd(std::uint64_t seed) {
  ExperimentConfig cfg = spmd_config(seed);
  Clock::time_point started;
  std::int64_t events = 0;
  cfg.on_run_start = [&](Simulator&, SpmdApp&, int) { started = Clock::now(); };
  cfg.on_run_end = [&](Simulator& sim, SpmdApp&, int) {
    events = static_cast<std::int64_t>(sim.events_executed());
  };
  const Clock::time_point t0 = Clock::now();
  const ExperimentResult res = run_experiment(cfg);
  UnitRun u;
  u.run_s = seconds_between(started, Clock::now());
  u.setup_s = seconds_between(t0, started);
  spmd_outputs(res.runs.at(0), events, u);
  return u;
}

UnitRun trace_spmd(std::uint64_t seed, StepTrace& trace, ClusterProbe&) {
  const ExperimentConfig cfg = spmd_config(seed);
  const int span = trace.begin("spmd.replica");
  UnitRun u;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point started;
  {
    // run_experiment's repeat 0 for Policy::Speed, from the same parts.
    Simulator sim(cfg.topo, cfg.sim, replica_seed(cfg.seed, 0));
    const auto cores = workload::first_cores(cfg.cores);
    LinuxLoadBalancer linux_lb(cfg.linux_load);
    linux_lb.attach(sim);
    SpmdApp app(sim, cfg.app);
    app.launch(SpmdApp::Placement::LinuxFork, cores);
    SpeedBalancer speed(cfg.speed, app.threads(), cores);
    speed.attach(sim);
    std::int64_t passes = 0;
    speed.set_sample_observer([&passes](const obs::SpeedSample&) { ++passes; });
    started = Clock::now();

    std::int64_t seen = 0;
    RunResult r;
    r.completed = run_traced(
        sim, cfg.time_cap, trace, span,
        [&] {
          const unsigned kinds = passes != seen ? kPass : 0u;
          seen = passes;
          return kinds;
        },
        [&] { return app.finished(); });
    r.runtime_s = r.completed ? to_sec(app.elapsed()) : to_sec(cfg.time_cap);
    r.migrations_by_cause = sim.metrics().migration_counts_by_cause();
    spmd_outputs(r, static_cast<std::int64_t>(sim.events_executed()), u);
    u.counts.passes = passes;
  }
  u.run_s = seconds_between(started, Clock::now());
  u.setup_s = seconds_between(t0, started);
  trace.end(span);
  return u;
}

// --- serve ------------------------------------------------------------------

/// One tigerton, 32 workers under SPEED, JSQ dispatch, idle=sleep; Poisson
/// arrivals at utilization 0.85 with exponential 500 us service; cores 0-1
/// halve their clock a sixth of the way in; 1/64 span sampling.
serve::ServeConfig serve_config(std::uint64_t seed) {
  serve::ServeConfig c;
  c.topo = presets::tigerton();
  c.cores = 16;
  c.policy = Policy::Speed;
  c.serve.workers = 32;
  c.serve.dispatch = serve::DispatchPolicy::JoinShortestQueue;
  c.serve.idle = serve::IdleMode::Sleep;
  c.serve.span_sampling_log2 = 6;
  c.service.kind = workload::ServiceKind::Exp;
  c.service.mean_us = 500.0;
  c.arrival.kind = workload::ArrivalKind::Poisson;
  c.arrival.rate_rps =
      serve::rate_for_utilization(c.topo, c.cores, 0.85, c.service.mean_us);
  c.duration = sec(15);
  // No warmup: every generated request is counted, so conservation is exact.
  c.warmup = 0;
  c.perturb = dvfs_step(c.duration / 6, 2, 0.5);
  c.seed = seed;
  return c;
}

void serve_outputs(const serve::ServeResult& res, std::int64_t events,
                   std::int64_t in_flight, const obs::RunRecorder& rec,
                   UnitRun& u) {
  const serve::ServeStats& s = res.stats;
  u.ops = res.generated;
  if (res.generated != s.completed + s.dropped + in_flight)
    u.failure = "serve: generated " + std::to_string(res.generated) +
                " != completed " + std::to_string(s.completed) +
                " + dropped " + std::to_string(s.dropped) + " + in-flight " +
                std::to_string(in_flight);
  u.fingerprint["generated"] = std::to_string(res.generated);
  u.fingerprint["completed"] = std::to_string(s.completed);
  u.fingerprint["dropped"] = std::to_string(s.dropped);
  u.fingerprint["in_flight_end"] = std::to_string(in_flight);
  u.fingerprint["events"] = std::to_string(events);
  u.fingerprint["sojourn_p50_ns"] = exact(s.latency.percentile(50.0));
  u.fingerprint["sojourn_p99_ns"] = exact(s.latency.percentile(99.0));
  u.fingerprint["max_queue_depth"] = std::to_string(s.max_queue_depth);
  add_migrations(res.migrations_by_cause, u);
  u.counts.events = events;
  u.counts.arrivals = res.generated;
  u.counts.completions = s.completed;
  u.counts.drops = s.dropped;
  u.counts.spans = static_cast<std::int64_t>(rec.spans().size());
  u.obs_self_ns = static_cast<double>(rec.overhead().total_ns());
  u.obs_export_ns = static_cast<double>(rec.export_overhead().total_ns());
}

UnitRun run_serve(std::uint64_t seed) {
  serve::ServeConfig cfg = serve_config(seed);
  obs::RunRecorder rec;
  cfg.recorder = &rec;
  Clock::time_point started;
  std::int64_t events = 0;
  std::int64_t in_flight = 0;
  cfg.on_run_start = [&](Simulator&, serve::ServeRuntime&) {
    started = Clock::now();
  };
  cfg.on_run_end = [&](Simulator& sim, serve::ServeRuntime& rt) {
    events = static_cast<std::int64_t>(sim.events_executed());
    in_flight = rt.in_flight();
  };
  const Clock::time_point t0 = Clock::now();
  const serve::ServeResult res = serve::run_serve(cfg);
  UnitRun u;
  u.run_s = seconds_between(started, Clock::now());
  u.setup_s = seconds_between(t0, started);
  serve_outputs(res, events, in_flight, rec, u);
  return u;
}

UnitRun trace_serve(std::uint64_t seed, StepTrace& trace, ClusterProbe&) {
  const serve::ServeConfig cfg = serve_config(seed);
  obs::RunRecorder rec;
  const int span = trace.begin("serve.episode");
  UnitRun u;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point started;
  {
    // run_serve's assembly for SPEED (no SHARE sink, no adaptive probe).
    Simulator sim(cfg.topo, cfg.sim, cfg.seed);
    sim.set_recorder(&rec);
    const auto cores = workload::first_cores(cfg.cores);
    perturb::SimPerturbDriver perturber(sim, cfg.perturb);
    perturber.set_recorder(&rec);
    perturber.arm();
    serve::PolicyStack stack({cfg.policy, cfg.speed, cfg.linux_load, cfg.dwrr,
                              cfg.ule, cfg.share, cfg.adaptive});
    stack.attach_kernel(sim);
    serve::ServeParams params = cfg.serve;
    params.warmup = cfg.warmup;
    serve::ServeRuntime runtime(sim, params);
    runtime.set_recorder(&rec);
    runtime.open(cores, stack.round_robin_launch());
    stack.attach_user(sim, runtime.workers(), cores, &rec);
    std::int64_t passes = 0;
    stack.speed()->set_sample_observer(
        [&passes](const obs::SpeedSample&) { ++passes; });
    started = Clock::now();

    serve::LoadGenerator gen(sim, runtime, cfg.arrival, cfg.service,
                             cfg.duration, cfg.warmup, cfg.seed);
    gen.start();
    std::int64_t seen_passes = 0;
    std::int64_t seen_generated = 0;
    std::int64_t seen_completed = 0;
    run_traced(
        sim, cfg.duration, trace, span,
        [&] {
          unsigned kinds = 0;
          if (passes != seen_passes) kinds |= kPass;
          if (gen.generated() != seen_generated) kinds |= kArrival;
          if (runtime.stats().completed != seen_completed) kinds |= kCompletion;
          seen_passes = passes;
          seen_generated = gen.generated();
          seen_completed = runtime.stats().completed;
          return kinds;
        },
        [] { return false; });
    // Every event at or before the horizon has run; this only moves the
    // clock to it, as run_until does.
    sim.run_until(cfg.duration);
    runtime.close();

    serve::ServeResult res;
    res.stats = runtime.stats();
    res.generated = gen.generated();
    res.goodput_rps = res.stats.goodput_rps(cfg.duration - cfg.warmup);
    res.total_migrations = sim.metrics().migration_count();
    res.migrations_by_cause = sim.metrics().migration_counts_by_cause();
    serve::export_result_to_recorder(res, rec);
    export_run_to_recorder(sim.metrics(), rec);
    serve_outputs(res, static_cast<std::int64_t>(sim.events_executed()),
                  runtime.in_flight(), rec, u);
    u.counts.passes = passes;
  }
  u.run_s = seconds_between(started, Clock::now());
  u.setup_s = seconds_between(t0, started);
  trace.end(span);
  return u;
}

// --- cluster ----------------------------------------------------------------

constexpr int kClusterNodes = 256;
constexpr int kTwinNodes = 16;
constexpr SimTime kClusterDuration = sec(2);
constexpr int kEpochProbes = 64;
constexpr int kExtraSetups = 4;

/// `nodes` generic4 machines with per-node SPEED, frontend JSQ(2), a 200 us
/// hop, utilization 0.7, 250 ms rebalance epochs; node 0's four cores drop
/// to 1/4 clock a quarter of the way in.
cluster::ClusterConfig cluster_config(std::uint64_t seed, int nodes,
                                      SimTime duration) {
  cluster::ClusterConfig c;
  c.nodes = nodes;
  c.pools_per_node = 1;
  c.topo = presets::generic(4);
  c.cores = 4;
  c.policy = Policy::Speed;
  c.serve.workers = 8;
  c.serve.dispatch = serve::DispatchPolicy::JoinShortestQueue;
  c.serve.idle = serve::IdleMode::Sleep;
  c.serve.span_sampling_log2 = -1;
  c.dispatch = cluster::ClusterDispatch::JsqD;
  c.jsq_d = 2;
  c.hop = usec(200);
  c.service.kind = workload::ServiceKind::Exp;
  c.service.mean_us = 5000.0;
  c.arrival.kind = workload::ArrivalKind::Poisson;
  c.arrival.rate_rps =
      nodes * serve::rate_for_utilization(c.topo, c.cores, 0.7,
                                          c.service.mean_us);
  c.duration = duration;
  c.warmup = duration / 10;
  c.seed = seed;
  c.rebalance.epoch = msec(250);
  c.node_perturb[0] = dvfs_step(duration / 4, 4, 0.25);
  return c;
}

void cluster_outputs(const cluster::ClusterSim& sim,
                     const cluster::ClusterResult& res, UnitRun& u) {
  const cluster::ClusterStats& s = res.stats;
  u.ops = res.generated;
  if (s.total_generated != s.total_completed + s.total_dropped +
                               s.in_transit_end + s.in_flight_end)
    u.failure = "cluster: generated " + std::to_string(s.total_generated) +
                " != completed " + std::to_string(s.total_completed) +
                " + dropped " + std::to_string(s.total_dropped) +
                " + in-transit " + std::to_string(s.in_transit_end) +
                " + in-flight " + std::to_string(s.in_flight_end);
  std::map<MigrationCause, std::int64_t> by_cause;
  for (int n = 0; n < sim.num_nodes(); ++n) {
    const Simulator& node = sim.node_sim(n);
    u.counts.events += static_cast<std::int64_t>(node.events_executed());
    for (const auto& [cause, k] : node.metrics().migration_counts_by_cause())
      by_cause[cause] += k;
  }
  add_migrations(by_cause, u);
  u.counts.pool_migrations = res.pool_migrations;
  u.fingerprint["generated"] = std::to_string(s.total_generated);
  u.fingerprint["completed"] = std::to_string(s.total_completed);
  u.fingerprint["dropped"] = std::to_string(s.total_dropped);
  u.fingerprint["in_transit_end"] = std::to_string(s.in_transit_end);
  u.fingerprint["in_flight_end"] = std::to_string(s.in_flight_end);
  u.fingerprint["node_events"] = std::to_string(u.counts.events);
  u.fingerprint["sojourn_p50_ns"] = exact(s.latency.percentile(50.0));
  u.fingerprint["sojourn_p99_ns"] = exact(s.latency.percentile(99.0));
  u.fingerprint["pool_migrations"] = std::to_string(res.pool_migrations);
  u.fingerprint["peak_imbalance"] = exact(res.peak_imbalance);
}

UnitRun run_cluster(std::uint64_t seed) {
  const cluster::ClusterConfig cfg =
      cluster_config(seed, kClusterNodes, kClusterDuration);
  // Construction is a few ms against a run of over a second, so a run holds
  // few set-up samples: each unit also times kExtraSetups throwaway
  // constructions and reports the median.
  std::vector<double> setups;
  for (int i = 0; i < kExtraSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    const cluster::ClusterSim throwaway(cfg);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  UnitRun u;
  const Clock::time_point t0 = Clock::now();
  cluster::ClusterSim sim(cfg);
  const Clock::time_point t1 = Clock::now();
  const cluster::ClusterResult res = sim.run();
  u.run_s = seconds_between(t1, Clock::now());
  setups.push_back(seconds_between(t0, t1));
  u.setup_s = percentile(setups, 50.0);
  cluster_outputs(sim, res, u);
  return u;
}

/// run_cluster with a span around each public call; with `epoch_us`, also
/// times kEpochProbes rebalance_once() calls on the finished cluster.
UnitRun timed_cluster(const cluster::ClusterConfig& cfg, StepTrace& trace,
                      int parent, std::vector<double>* epoch_us) {
  UnitRun u;
  int span = trace.begin("cluster.construct", parent);
  const Clock::time_point t0 = Clock::now();
  cluster::ClusterSim sim(cfg);
  const Clock::time_point t1 = Clock::now();
  trace.end(span);
  span = trace.begin("cluster.run", parent);
  const cluster::ClusterResult res = sim.run();
  u.run_s = seconds_between(t1, Clock::now());
  u.setup_s = seconds_between(t0, t1);
  trace.end(span);
  cluster_outputs(sim, res, u);
  for (int i = 0; epoch_us != nullptr && i < kEpochProbes; ++i) {
    span = trace.begin("cluster.rebalance_once", parent);
    const Clock::time_point e0 = Clock::now();
    sim.rebalance_once();
    epoch_us->push_back(seconds_between(e0, Clock::now()) * 1e6);
    trace.end(span);
  }
  return u;
}

UnitRun trace_cluster(std::uint64_t seed, StepTrace& trace,
                      ClusterProbe& probe) {
  const int span = trace.begin("cluster.episode");
  UnitRun u = timed_cluster(cluster_config(seed, kClusterNodes, kClusterDuration),
                            trace, span, &probe.epoch_us);
  trace.end(span);
  probe.setup_us_per_node.push_back(u.setup_s * 1e6 / kClusterNodes);
  probe.run_s += u.run_s;
  probe.requests += static_cast<double>(u.ops);

  // Same per-node load on 16 nodes, 16x longer, so both runs generate about
  // the same number of requests: the ratio isolates per-node bookkeeping.
  const int twin_span = trace.begin("cluster.twin16");
  const UnitRun twin = timed_cluster(
      cluster_config(seed, kTwinNodes,
                     kClusterDuration * (kClusterNodes / kTwinNodes)),
      trace, twin_span, nullptr);
  trace.end(twin_span);
  probe.twin_run_s += twin.run_s;
  probe.twin_requests += static_cast<double>(twin.ops);
  if (u.failure.empty() && !twin.failure.empty())
    u.failure = "16-node twin: " + twin.failure;
  return u;
}

constexpr Workload kWorkloads[] = {
    {"spmd", 4, run_spmd, trace_spmd},
    {"serve", 4, run_serve, trace_serve},
    {"cluster", 2, run_cluster, trace_cluster},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : kWorkloads) out.emplace_back(w.name);
  return out;
}

ParallelLeg run_parallel_leg(std::uint64_t seed, int replicas, int jobs) {
  ParallelLeg leg;
  leg.replicas = replicas;
  ExperimentConfig cfg = spmd_config(seed, replicas);
  Clock::time_point t0 = Clock::now();
  const ExperimentResult seq = run_experiment(cfg);
  leg.wall_jobs1_s = seconds_between(t0, Clock::now());
  cfg.jobs = jobs;
  t0 = Clock::now();
  const ExperimentResult par = run_experiment(cfg);
  leg.wall_jobsn_s = seconds_between(t0, Clock::now());
  for (std::size_t i = 0; i < seq.runs.size(); ++i) {
    const RunResult& a = seq.runs[i];
    const RunResult& b = par.runs.at(i);
    if (a.completed != b.completed || a.runtime_s != b.runtime_s ||
        a.migrations_by_cause != b.migrations_by_cause)
      leg.failure = "replica " + std::to_string(i) + " differs between jobs=1 and jobs=" +
                    std::to_string(jobs);
  }
  if (!seq.all_completed()) leg.failure = "a replica hit the time cap";
  return leg;
}

}  // namespace perfbench
