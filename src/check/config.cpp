#include "check/config.hpp"

#include <algorithm>

#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal::check {

namespace {

/// The SHARE knobs bind in every mode (the policy field decides whether a
/// ShareBalancer is actually built); the epoch reuses the speed balancer's
/// interval so a shrink step that shortens one shortens both.
hetero::ShareParams share_params(const FuzzScenario& sc) {
  hetero::ShareParams p;
  p.source = sc.share_count ? hetero::ShareParams::Source::Count
                            : hetero::ShareParams::Source::Speed;
  p.interval = sc.balance_interval;
  p.min_share = sc.min_share;
  p.hysteresis = sc.share_hysteresis;
  return p;
}

}  // namespace

ExperimentConfig spmd_experiment(const FuzzScenario& sc) {
  ExperimentConfig cfg;
  cfg.topo = presets::by_name(sc.topo);
  BarrierConfig barrier;
  barrier.policy = sc.barrier;
  cfg.app = workload::uniform_app(sc.threads, sc.phases, sc.work_per_phase_us,
                                  barrier);
  cfg.app.work_jitter = sc.work_jitter;
  cfg.policy = sc.policy;
  cfg.cores = sc.cores;
  cfg.repeats = 1;
  cfg.jobs = 1;
  cfg.seed = sc.seed;
  cfg.time_cap = sec(600);
  cfg.speed.interval = sc.balance_interval;
  cfg.speed.threshold = sc.threshold;
  cfg.adaptive.enabled = sc.adaptive;
  cfg.share = share_params(sc);
  for (const perturb::PerturbEvent& ev : sc.perturb) cfg.perturb.add(ev);
  return cfg;
}

serve::ServeConfig serve_experiment(const FuzzScenario& sc) {
  serve::ServeConfig cfg;
  cfg.topo = presets::by_name(sc.topo);
  cfg.cores = sc.cores;
  cfg.policy = sc.policy;
  cfg.serve.workers = sc.workers;
  cfg.serve.idle = sc.serve_busy_poll ? serve::IdleMode::Yield
                                      : serve::IdleMode::Sleep;
  cfg.arrival.kind = sc.arrival;
  cfg.arrival.rate_rps = serve::rate_for_utilization(
      cfg.topo, sc.cores, sc.utilization, sc.mean_service_us);
  cfg.service.kind = sc.service;
  cfg.service.mean_us = sc.mean_service_us;
  cfg.duration = sc.duration;
  cfg.warmup = std::min(msec(100), sc.duration / 4);
  cfg.seed = sc.seed;
  cfg.speed.interval = sc.balance_interval;
  cfg.speed.threshold = sc.threshold;
  cfg.adaptive.enabled = sc.adaptive;
  cfg.share = share_params(sc);
  // SHARE only reaches the request stream through dispatch weights, so a
  // SHARE serve episode exercises the weighted dispatcher (the SERVE-SHARE
  // default); other policies use the generated dispatcher.
  cfg.serve.dispatch = sc.policy == Policy::Share
                           ? serve::DispatchPolicy::Weighted
                           : sc.serve_dispatch;
  for (const perturb::PerturbEvent& ev : sc.perturb) cfg.perturb.add(ev);
  return cfg;
}

cluster::ClusterConfig cluster_experiment(const FuzzScenario& sc) {
  cluster::ClusterConfig cfg;
  cfg.nodes = sc.nodes;
  cfg.pools_per_node = 1;
  cfg.topo = presets::by_name(sc.topo);
  cfg.cores = sc.cores;
  cfg.policy = sc.policy;
  cfg.serve.workers = sc.workers;
  cfg.serve.idle = sc.serve_busy_poll ? serve::IdleMode::Yield
                                      : serve::IdleMode::Sleep;
  cfg.dispatch = sc.cluster_dispatch;
  cfg.jsq_d = sc.jsq_d;
  cfg.hop = static_cast<SimTime>(sc.hop_us);
  cfg.arrival.kind = sc.arrival;
  cfg.arrival.rate_rps =
      static_cast<double>(sc.nodes) *
      serve::rate_for_utilization(cfg.topo, sc.cores, sc.utilization,
                                  sc.mean_service_us);
  cfg.service.kind = sc.service;
  cfg.service.mean_us = sc.mean_service_us;
  cfg.duration = sc.duration;
  cfg.warmup = std::min(msec(100), sc.duration / 4);
  cfg.seed = sc.seed;
  cfg.speed.interval = sc.balance_interval;
  cfg.speed.threshold = sc.threshold;
  cfg.adaptive.enabled = sc.adaptive;
  cfg.share = share_params(sc);
  cfg.rebalance.enabled = sc.cluster_rebalance;
  cfg.rebalance.epoch = msec(50);
  if (!sc.perturb.empty()) {
    perturb::PerturbTimeline timeline;
    for (const perturb::PerturbEvent& ev : sc.perturb) timeline.add(ev);
    cfg.node_perturb[sc.perturb_node] = std::move(timeline);
  }
  return cfg;
}

}  // namespace speedbal::check
