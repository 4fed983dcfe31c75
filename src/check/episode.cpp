#include "check/episode.hpp"

#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "check/config.hpp"
#include "check/reference_queue.hpp"
#include "obs/recorder.hpp"

namespace speedbal::check {

namespace {

constexpr SimTime kProbePeriod = msec(5);
constexpr SimTime kHonestCap = sec(600);
constexpr SimTime kBrokenCap = sec(30);
constexpr int kQueueFuzzOps = 400;

/// Everything the hooks collect from inside the run, harvested while the
/// Simulator is still alive.
struct Harvest {
  std::vector<TaskSnapshot> snaps;
  std::vector<CoreSpeed> speeds;
  std::vector<CoreTimes> cores;
  std::vector<MigrationRecord> migrations;
  ServeCounters serve;
  int probes = 0;
};

bool movable_state(TaskState s) {
  return s == TaskState::Runnable || s == TaskState::Running;
}

void snapshot_task(const Simulator& sim, const Task& t,
                   std::vector<TaskSnapshot>& out) {
  TaskSnapshot s;
  s.id = t.id();
  s.state = to_string(t.state());
  s.expect_queued = movable_state(t.state());
  s.core = t.core();
  s.when = sim.now();
  int memberships = 0;
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    if (!sim.core(c).queue().contains(t)) continue;
    ++memberships;
    if (c == t.core()) s.on_own_queue = true;
  }
  s.queue_memberships = memberships;
  if (t.core() >= 0 && t.core() < sim.num_cores()) {
    s.allowed_on_core = t.allowed_on(t.core());
    s.core_online = sim.core_online(t.core());
  }
  out.push_back(std::move(s));
}

void probe_tick(Simulator& sim, Harvest& h, SimTime horizon) {
  ++h.probes;
  sim.for_each_live_task(
      [&](const Task* t) { snapshot_task(sim, *t, h.snaps); });
  for (CoreId c = 0; c < sim.num_cores(); ++c)
    if (const Task* t = sim.core(c).running())
      h.speeds.push_back({c, t->id(), sim.core(c).current_speed(),
                          sim.compute_speed(*t, c), sim.now()});
  if (sim.now() + kProbePeriod <= horizon)
    sim.schedule_after(kProbePeriod, [&sim, &h, horizon] {
      probe_tick(sim, h, horizon);
    });
}

/// End-of-run harvest: exact accounting, final placement of every task ever
/// created (Finished tasks must be on no queue), and the migration log.
void harvest_run_end(Simulator& sim, Harvest& h) {
  sim.sync_all_accounting();
  const SimTime elapsed = sim.now();
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    CoreTimes ct;
    ct.core = c;
    ct.elapsed = elapsed;
    ct.busy = sim.core(c).busy_time();
    SimTime exec = 0;
    for (TaskId id = 0; id < sim.num_tasks(); ++id)
      exec += sim.metrics().exec_by_core(id)[static_cast<std::size_t>(c)];
    ct.exec_sum = exec;
    h.cores.push_back(ct);
  }
  for (TaskId id = 0; id < sim.num_tasks(); ++id)
    snapshot_task(sim, sim.task(id), h.snaps);
  h.migrations = sim.metrics().migrations();
}

Task* first_movable(Simulator& sim) {
  for (Task* t : sim.live_tasks())
    if (movable_state(t->state())) return t;
  return nullptr;
}

/// Inject the scenario's deliberate defect (see BrokenMode). All stubs act
/// at 10-11 ms, after launch placement has settled.
void arm_broken(Simulator& sim, const FuzzScenario& sc, obs::RunRecorder& rec) {
  switch (sc.broken) {
    case BrokenMode::None:
      return;
    case BrokenMode::LoseTask:
      // Park a thread and forget it: the barrier never completes, which the
      // liveness check (run under the reduced broken-mode time cap) reports.
      sim.schedule_at(msec(10), [&sim] {
        if (Task* t = first_movable(sim)) sim.park_task(*t);
      });
      return;
    case BrokenMode::CrossNuma:
      // A SpeedBalancer-attributed pull across a NUMA boundary.
      sim.schedule_at(msec(10), [&sim, cores = sc.cores] {
        for (Task* t : sim.live_tasks()) {
          if (!movable_state(t->state())) continue;
          for (CoreId c = 0; c < cores; ++c)
            if (!sim.topo().same_numa(t->core(), c)) {
              sim.set_affinity(*t, 1ULL << c, /*hard_pin=*/true,
                               MigrationCause::SpeedBalancer);
              return;
            }
        }
      });
      return;
    case BrokenMode::Cooldown: {
      // Two pulls of the same thread 1 ms apart: the second shares the first
      // pull's destination core, far inside the two-interval block.
      auto victim = std::make_shared<Task*>(nullptr);
      sim.schedule_at(msec(10), [&sim, victim, cores = sc.cores] {
        Task* t = first_movable(sim);
        if (t == nullptr) return;
        *victim = t;
        sim.set_affinity(*t, 1ULL << ((t->core() + 1) % cores),
                         /*hard_pin=*/true, MigrationCause::SpeedBalancer);
      });
      sim.schedule_at(msec(11), [&sim, victim, cores = sc.cores] {
        Task* t = *victim;
        if (t == nullptr || t->state() == TaskState::Finished) return;
        sim.set_affinity(*t, 1ULL << ((t->core() + 1) % cores),
                         /*hard_pin=*/true, MigrationCause::SpeedBalancer);
      });
      return;
    }
    case BrokenMode::HotPotato: {
      // A pull pair that ping-pongs one thread A->B then straight back B->A
      // 1 ms later — the round trip completes far inside the guard window
      // (hot_potato_guard intervals), which the oscillation check reports.
      auto moved = std::make_shared<std::pair<Task*, CoreId>>(nullptr, -1);
      sim.schedule_at(msec(10), [&sim, moved, cores = sc.cores] {
        Task* t = first_movable(sim);
        if (t == nullptr) return;
        *moved = {t, t->core()};
        sim.set_affinity(*t, 1ULL << ((t->core() + 1) % cores),
                         /*hard_pin=*/true, MigrationCause::SpeedBalancer);
      });
      sim.schedule_at(msec(11), [&sim, moved] {
        Task* t = moved->first;
        if (t == nullptr || t->state() == TaskState::Finished) return;
        sim.set_affinity(*t, 1ULL << moved->second, /*hard_pin=*/true,
                         MigrationCause::SpeedBalancer);
      });
      return;
    }
    case BrokenMode::Threshold:
      // One real migration paired with a forged decision record claiming a
      // pull from a core at exactly the global speed — above T_s.
      sim.schedule_at(msec(10), [&sim, &rec, cores = sc.cores] {
        Task* t = first_movable(sim);
        if (t == nullptr) return;
        const CoreId from = t->core();
        const CoreId to = (from + 1) % cores;
        if (!sim.set_affinity(*t, 1ULL << to, /*hard_pin=*/true,
                              MigrationCause::SpeedBalancer))
          return;
        obs::DecisionRecord d;
        d.ts_us = sim.now();
        d.local = to;
        d.source = from;
        d.victim = t->id();
        d.local_speed = 1.0;
        d.source_speed = 1.0;
        d.global = 1.0;
        d.reason = obs::PullReason::Pulled;
        rec.decisions().add(d);
      });
      return;
  }
}

SpeedRuleInputs speed_inputs(const Topology& topo,
                             const SpeedBalanceParams& params) {
  SpeedRuleInputs in;
  in.threshold = params.threshold;
  in.interval = params.interval;
  in.post_migration_block = params.post_migration_block;
  in.shared_cache_block_scale = params.shared_cache_block_scale;
  in.block_numa = params.block_numa;
  in.topo = &topo;
  return in;
}

TuningRuleInputs tuning_inputs(const FuzzScenario& sc,
                               const SpeedBalanceParams& speed,
                               const AdaptiveParams& adaptive) {
  TuningRuleInputs in;
  in.interval = speed.interval;
  in.hot_potato_guard = kHotPotatoGuard;
  in.min_dwell_epochs = adaptive.min_dwell_epochs;
  if (sc.adaptive) in.portfolio = default_portfolio(speed);
  return in;
}

/// SHARE's partition invariant over every recorded repartition epoch.
void check_shares(const FuzzScenario& sc, const hetero::ShareParams& share,
                  const obs::RunRecorder& rec, std::vector<Violation>& out) {
  if (sc.policy == Policy::Share)
    check_share_conservation(
        ShareRuleInputs{sc.cores, share.min_share, rec.shares().snapshot()},
        out);
}

/// The balancer-rule block a single-machine episode (spmd or serve) runs
/// over its machine's migration log and recorder. Oscillation and tuning
/// stability go before the speed rules consume the migration log
/// (hot-potato freedom binds under every policy; the trajectory checks only
/// see records when the adaptive controller ran); SHARE's partition
/// invariant goes last.
template <class Config>
void check_balancer_rules(const FuzzScenario& sc, const Config& cfg,
                          std::vector<MigrationRecord> migrations,
                          const obs::RunRecorder& rec,
                          std::vector<Violation>& out) {
  TuningRuleInputs tin = tuning_inputs(sc, cfg.speed, cfg.adaptive);
  tin.migrations = migrations;
  tin.tuning = rec.tuning().snapshot();
  check_oscillation(tin, out);
  check_tuning_stability(tin, out);
  SpeedRuleInputs in = speed_inputs(cfg.topo, cfg.speed);
  in.migrations = std::move(migrations);
  in.decisions = rec.decisions().snapshot();
  in.tuning = std::move(tin.tuning);
  check_speed_rules(in, out);
  check_shares(sc, cfg.share, rec, out);
}

std::int64_t count_pulls(const std::vector<MigrationRecord>& migrations) {
  std::int64_t n = 0;
  for (const MigrationRecord& m : migrations)
    if (m.cause == MigrationCause::SpeedBalancer && m.ts_us > 0) ++n;
  return n;
}

void run_spmd_episode(const FuzzScenario& sc, EpisodeResult& r) {
  ExperimentConfig cfg = spmd_experiment(sc);
  cfg.time_cap = sc.broken == BrokenMode::None ? kHonestCap : kBrokenCap;

  obs::RunRecorder rec;
  cfg.recorder = &rec;

  Harvest h;
  cfg.on_run_start = [&](Simulator& sim, SpmdApp&, int) {
    sim.schedule_after(kProbePeriod, [&sim, &h, cap = cfg.time_cap] {
      probe_tick(sim, h, cap);
    });
    arm_broken(sim, sc, rec);
  };
  cfg.on_run_end = [&](Simulator& sim, SpmdApp&, int) {
    harvest_run_end(sim, h);
  };

  const ExperimentResult res = run_experiment(cfg);
  r.completed = res.runs.at(0).completed;
  r.runtime_s = res.runs.at(0).runtime_s;
  r.total_migrations = res.runs.at(0).total_migrations;
  r.speed_pulls = count_pulls(h.migrations);
  r.probes = h.probes;

  check_time_conservation(h.cores, r.violations);
  check_task_placement(h.snaps, r.violations);
  check_speed_consistency(h.speeds, r.violations);
  check_balancer_rules(sc, cfg, std::move(h.migrations), rec, r.violations);
  if (!r.completed)
    r.violations.push_back(Violation{
        "liveness", "run did not complete within cap=" +
                        std::to_string(cfg.time_cap) + "us (threads=" +
                        std::to_string(sc.threads) + ", phases=" +
                        std::to_string(sc.phases) + ")"});
}

/// Deterministic digest of a serve run's externally visible results, the
/// unit of comparison for the sampling-identity oracle (%.17g doubles so
/// equal results render equal bytes).
std::string serve_digest(const serve::ServeResult& res) {
  char goodput[40];
  std::snprintf(goodput, sizeof(goodput), "%.17g", res.goodput_rps);
  std::ostringstream os;
  os << "completed=" << res.stats.completed << " offered=" << res.stats.offered
     << " admitted=" << res.stats.admitted << " dropped=" << res.stats.dropped
     << " generated=" << res.generated
     << " migrations=" << res.total_migrations << " goodput=" << goodput
     << " lat_count=" << res.stats.latency.count()
     << " lat_min=" << res.stats.latency.min()
     << " lat_max=" << res.stats.latency.max();
  return os.str();
}

void run_serve_episode(const FuzzScenario& sc, EpisodeResult& r) {
  serve::ServeConfig cfg = serve_experiment(sc);

  obs::RunRecorder rec;
  cfg.recorder = &rec;

  Harvest h;
  cfg.on_run_start = [&](Simulator& sim, serve::ServeRuntime&) {
    sim.schedule_after(kProbePeriod, [&sim, &h, horizon = cfg.duration] {
      probe_tick(sim, h, horizon);
    });
  };
  cfg.on_run_end = [&](Simulator& sim, serve::ServeRuntime& runtime) {
    harvest_run_end(sim, h);
    const serve::ServeStats& st = runtime.stats();
    h.serve.offered = st.offered;
    h.serve.admitted = st.admitted;
    h.serve.dropped = st.dropped;
    h.serve.completed = st.completed;
    h.serve.latency_count = st.latency.count();
    h.serve.queue_wait_count = st.queue_wait.count();
  };

  const serve::ServeResult res = serve::run_serve(cfg);
  r.completed = true;
  r.runtime_s = to_sec(sc.duration);
  r.total_migrations = res.total_migrations;
  r.speed_pulls = count_pulls(h.migrations);
  r.probes = h.probes;

  check_time_conservation(h.cores, r.violations);
  check_task_placement(h.snaps, r.violations);
  check_speed_consistency(h.speeds, r.violations);
  check_serve_counters(h.serve, r.violations);
  check_span_conservation(rec.spans().snapshot(), r.violations);
  check_balancer_rules(sc, cfg, std::move(h.migrations), rec, r.violations);

  // Observation-identity oracle: replay the identical scenario with no
  // recorder, probes, or span tracing attached; every result metric must be
  // byte-identical, proving the observability layer reads but never
  // perturbs the simulation.
  const serve::ServeResult bare = serve::run_serve(serve_experiment(sc));
  check_sampling_identity(serve_digest(res), serve_digest(bare), r.violations);
}

/// Deterministic digest of a cluster run's externally visible results (the
/// comparison unit for the cluster observation-identity oracle).
std::string cluster_digest(const cluster::ClusterResult& res) {
  char goodput[40];
  std::snprintf(goodput, sizeof(goodput), "%.17g", res.goodput_rps);
  char imbalance[40];
  std::snprintf(imbalance, sizeof(imbalance), "%.17g", res.peak_imbalance);
  std::ostringstream os;
  os << "completed=" << res.stats.completed << " offered=" << res.stats.offered
     << " admitted=" << res.stats.admitted << " dropped=" << res.stats.dropped
     << " generated=" << res.generated
     << " migrations=" << res.pool_migrations << " goodput=" << goodput
     << " peak_imbalance=" << imbalance
     << " in_transit=" << res.stats.in_transit_end
     << " in_flight=" << res.stats.in_flight_end
     << " lat_count=" << res.stats.latency.count()
     << " lat_min=" << res.stats.latency.min()
     << " lat_max=" << res.stats.latency.max();
  for (const std::int64_t n : res.completed_by_node) os << " " << n;
  return os.str();
}

void run_cluster_episode(const FuzzScenario& sc, EpisodeResult& r) {
  cluster::ClusterConfig cfg = cluster_experiment(sc);
  obs::RunRecorder rec;
  cfg.recorder = &rec;
  // Drive ClusterSim directly (run_cluster's body) so the node simulators
  // stay alive for the per-node migration-log harvest below.
  cluster::ClusterSim csim(cfg);
  const cluster::ClusterResult res = csim.run();
  r.completed = true;
  r.runtime_s = to_sec(sc.duration);
  r.total_migrations = res.pool_migrations;

  ClusterCounters c;
  c.offered = res.stats.offered;
  c.admitted = res.stats.admitted;
  c.dropped = res.stats.dropped;
  c.completed = res.stats.completed;
  c.total_generated = res.stats.total_generated;
  c.total_completed = res.stats.total_completed;
  c.total_dropped = res.stats.total_dropped;
  c.in_transit_end = res.stats.in_transit_end;
  c.in_flight_end = res.stats.in_flight_end;
  c.latency_count = res.stats.latency.count();
  c.queue_wait_count = res.stats.queue_wait.count();
  check_cluster_conservation(c, r.violations);
  // Hot-potato freedom per node: each node's Simulator keeps its own
  // migration log. The per-node adaptive trajectories go unrecorded (the
  // stacks attach with no recorder), so under --adaptive the guard window
  // is checked against the tightest interval any portfolio arm could have
  // set — sound for every trajectory the controller might have walked.
  {
    TuningRuleInputs tin = tuning_inputs(sc, cfg.speed, cfg.adaptive);
    for (const TuningArm& a : tin.portfolio)
      tin.interval = std::min(tin.interval, a.interval);
    tin.portfolio.clear();  // No trajectory to match arms against.
    for (int n = 0; n < csim.num_nodes(); ++n) {
      tin.migrations = csim.node_sim(n).metrics().migrations();
      check_oscillation(tin, r.violations);
    }
  }
  // Every node's ShareBalancer logs into the shared recorder; each epoch
  // record is a complete per-node partition and is checked independently.
  check_shares(sc, cfg.share, rec, r.violations);

  // Observation-identity oracle, cluster scope: the recorder (rebalance
  // log, node-tagged run segments) must read the run without perturbing it.
  const cluster::ClusterResult bare =
      cluster::run_cluster(cluster_experiment(sc));
  check_sampling_identity(cluster_digest(res), cluster_digest(bare),
                          r.violations);
}

}  // namespace

EpisodeResult run_episode(const FuzzScenario& sc) {
  sc.validate();
  EpisodeResult r;
  // Pure properties first: cheap, and independent of the episode body.
  r.histogram_samples =
      fuzz_histogram_merge(sc.seed ^ 0x9e3779b97f4a7c15ULL, r.violations);
  r.queue_events = fuzz_event_queue(sc.seed, kQueueFuzzOps, r.violations);

  switch (sc.mode) {
    case Mode::Spmd: run_spmd_episode(sc, r); break;
    case Mode::Serve: run_serve_episode(sc, r); break;
    case Mode::Cluster: run_cluster_episode(sc, r); break;
  }
  return r;
}

std::string EpisodeResult::digest() const {
  std::ostringstream os;
  char runtime[40];
  std::snprintf(runtime, sizeof(runtime), "%.17g", runtime_s);
  os << "completed=" << (completed ? 1 : 0) << " runtime_s=" << runtime
     << " migrations=" << total_migrations << " pulls=" << speed_pulls
     << " probes=" << probes << " hist_samples=" << histogram_samples
     << " queue_events=" << queue_events
     << " violations=" << violations.size() << "\n";
  os << format_violations(violations);
  return os.str();
}

FuzzScenario broken_scenario(BrokenMode mode) {
  if (mode == BrokenMode::None)
    throw std::invalid_argument("broken_scenario: mode must not be none");
  FuzzScenario sc;
  sc.seed = 1234;
  sc.mode = Mode::Spmd;
  // LOAD keeps the genuine speed balancer out of the episode, so the only
  // SpeedBalancer-attributed activity is the injected defect.
  sc.policy = Policy::Load;
  sc.broken = mode;
  sc.threads = 6;
  sc.phases = 2;
  sc.work_per_phase_us = 30000.0;
  sc.work_jitter = 0.0;
  sc.barrier = WaitPolicy::Sleep;
  if (mode == BrokenMode::CrossNuma) {
    sc.topo = "barcelona";  // 4-core NUMA nodes; cores 0-5 span two nodes.
    sc.cores = 6;
  } else {
    sc.topo = "generic4";
    sc.cores = 4;
  }
  sc.validate();
  return sc;
}

const char* expected_violation(BrokenMode mode) {
  switch (mode) {
    case BrokenMode::None: return "";
    case BrokenMode::CrossNuma: return "numa-block";
    case BrokenMode::Cooldown: return "cooldown";
    case BrokenMode::Threshold: return "threshold";
    case BrokenMode::LoseTask: return "liveness";
    case BrokenMode::HotPotato: return "oscillation";
  }
  return "";
}

}  // namespace speedbal::check
