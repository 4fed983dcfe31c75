#include "cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "perturb/sim_driver.hpp"
#include "workload/generator.hpp"

namespace speedbal::cluster {

namespace {
/// Same stream-separation salts as serve::LoadGenerator, plus independent
/// streams for the JSQ(d) sampling and the per-node simulator seeds, so no
/// consumer's draw order can perturb another's.
constexpr std::uint64_t kArrivalSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kServiceSalt = 0xd1b54a32d192ed03ULL;
constexpr std::uint64_t kDispatchSalt = 0x2545f4914f6cdd1dULL;
constexpr std::uint64_t kNodeSalt = 0x94d049bb133111ebULL;
/// Cluster events between two trim_segments passes of a recorded run.
constexpr int kSegmentTrimEvery = 4096;
/// The due-set key of a node with nothing pending: after every real time.
constexpr SimTime kNeverDue = std::numeric_limits<SimTime>::max();
}  // namespace

ClusterSim::ClusterSim(const ClusterConfig& config)
    : config_(config),
      arrivals_(config.arrival, config.seed ^ kArrivalSalt),
      service_(config.service, config.seed ^ kServiceSalt),
      dispatch_rng_(config.seed ^ kDispatchSalt),
      recorder_(config.recorder) {
  if (config_.nodes < 1)
    throw std::invalid_argument("ClusterConfig: nodes must be >= 1");
  if (config_.pools_per_node < 1)
    throw std::invalid_argument("ClusterConfig: pools_per_node must be >= 1");
  if (config_.hop < 0)
    throw std::invalid_argument("ClusterConfig: hop must be >= 0");
  if (config_.warmup >= config_.duration)
    throw std::invalid_argument("ClusterConfig: warmup must be < duration");

  const SimParams sim_params =
      serve::PolicyStack::sim_params(config_.policy, config_.sim);

  const int k = config_.cores > 0 ? config_.cores : config_.topo.num_cores();
  completed_by_node_.assign(static_cast<std::size_t>(config_.nodes), 0);

  nodes_.resize(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    // Distinct per-node seed streams derived from the cluster seed: node
    // simulators draw independently, and the whole cluster replays from
    // one seed.
    const std::uint64_t node_seed =
        config_.seed ^ (kNodeSalt * static_cast<std::uint64_t>(n + 1));
    node.sim = std::make_unique<Simulator>(config_.topo, sim_params, node_seed);
    node.cores = workload::first_cores(k);
    node.stack = std::make_unique<serve::PolicyStack>(serve::PolicyStackParams{
        config_.policy, config_.speed, config_.linux_load, config_.dwrr,
        config_.ule, config_.share, config_.adaptive});
    node.stack->attach_kernel(*node.sim);
    // Node migrations stay out of the recorder; only the segments go in.
    if (recorder_ != nullptr)
      node.sim->metrics().keep_segments_for(&recorder_->run_segments(), n);

    if (const auto it = config_.node_perturb.find(n);
        it != config_.node_perturb.end() && !it->second.empty()) {
      node.perturber =
          std::make_unique<perturb::SimPerturbDriver>(*node.sim, it->second);
      node.perturber->arm();
    }
  }

  // Initial pools, round-robin homed: pool p starts on node p % nodes. Every
  // node's user-level balancer attaches over its initial workers at once,
  // mirroring run_serve's single-pool attachment. SHARE nodes log their
  // repartition epochs into the cluster recorder; the other node balancers
  // run unrecorded.
  obs::RunRecorder* node_rec =
      config_.policy == Policy::Share ? recorder_ : nullptr;
  pools_.resize(static_cast<std::size_t>(config_.nodes) *
                static_cast<std::size_t>(config_.pools_per_node));
  std::vector<std::vector<Task*>> initial_workers(
      static_cast<std::size_t>(config_.nodes));
  for (int p = 0; p < static_cast<int>(pools_.size()); ++p) {
    const int n = p % config_.nodes;
    serve::ServeRuntime* rt = open_pool_on(p, n);
    auto& workers = initial_workers[static_cast<std::size_t>(n)];
    workers.insert(workers.end(), rt->workers().begin(), rt->workers().end());
  }
  for (int n = 0; n < config_.nodes; ++n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    node.stack->attach_user(*node.sim,
                            initial_workers[static_cast<std::size_t>(n)],
                            node.cores, node_rec);
  }
  loads_.assign(pools_.size(), PoolLoad{});
  due_ = WinnerTree<SimTime>(config_.nodes, kNeverDue);
  for (int n = 0; n < config_.nodes; ++n) rekey(n);
}

ClusterSim::~ClusterSim() = default;

serve::ServeRuntime* ClusterSim::open_pool_on(int pool, int node) {
  Node& home = nodes_[static_cast<std::size_t>(node)];
  serve::ServeParams sp = config_.serve;
  sp.warmup = config_.warmup;
  auto rt = std::make_unique<serve::ServeRuntime>(*home.sim, sp);
  rt->open(home.cores, home.stack->round_robin_launch());
  serve::ServeRuntime* raw = rt.get();
  rt->set_completion_hook([this, pool, raw, node](const Request& r) {
    on_pool_complete(pool, raw, node, r);
  });
  Pool& p = pools_[static_cast<std::size_t>(pool)];
  p.node = node;
  p.runtime = raw;
  p.incarnations.push_back({std::move(rt), node});
  return raw;
}

void ClusterSim::advance_due(SimTime t) {
  // Ascending id, the order an all-nodes sweep would run them in: node
  // completions then reach the shared latency histogram in the same order,
  // so even its floating-point sum is unchanged. The due set is fixed
  // before any node runs.
  due_scratch_.clear();
  due_.for_each_at_most(t, [this](int n) { due_scratch_.push_back(n); });
  for (const int n : due_scratch_) {
    nodes_[static_cast<std::size_t>(n)].sim->run_until(t);
    rekey(n);
  }
}

void ClusterSim::advance_nodes(SimTime t) {
  for (Node& node : nodes_) node.sim->run_until(t);
}

void ClusterSim::trim_segments() {
  // The nodes export in node order into one table, so node n keeps no more
  // than the nodes before it leave of the table's room; what they have
  // recorded only grows.
  auto left = static_cast<std::int64_t>(recorder_->run_segments().room());
  for (Node& node : nodes_) {
    Metrics& m = node.sim->metrics();
    m.limit_segments(static_cast<std::size_t>(std::max<std::int64_t>(left, 0)));
    left -= m.segments_recorded();
  }
}

void ClusterSim::touch(int n) {
  nodes_[static_cast<std::size_t>(n)].sim->run_until(cq_.now());
  touched_.push_back(n);
}

void ClusterSim::rekey_touched() {
  for (const int n : touched_) rekey(n);
  touched_.clear();
}

void ClusterSim::rekey(int n) {
  const SimTime next = nodes_[static_cast<std::size_t>(n)].sim->next_event_time();
  due_.update(n, next == kNever ? kNeverDue : next);
}

double ClusterSim::node_effective_capacity(int node) const {
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  double cap = 0.0;
  for (const CoreId c : nd.cores)
    if (nd.sim->core(c).online()) cap += nd.sim->topo().core(c).clock_scale;
  return std::max(cap, 1e-9);
}

void ClusterSim::arrive(SimTime t) {
  Request r;
  r.id = next_id_++;
  r.arrival = t;
  r.service_us = service_.sample();
  const double mean = service_.spec().mean_us;
  r.cls = r.service_us < 0.5 * mean ? 0 : (r.service_us < 2.0 * mean ? 1 : 2);
  r.recorded = t >= config_.warmup;

  ++stats_.total_generated;
  if (r.recorded) ++stats_.offered;

  const int pool = pick_pool(config_.dispatch, config_.jsq_d, loads_,
                             rr_cursor_, dispatch_rng_);
  ++loads_[static_cast<std::size_t>(pool)].assigned;
  send(pool, r);

  const SimTime next = arrivals_.next(t);
  if (next >= config_.duration) return;
  cq_.schedule(next, [this, next] { arrive(next); });
}

void ClusterSim::send(int pool, const Request& r) {
  network_.push_back({pool, r});
  cq_.schedule(cq_.now() + config_.hop, [this] { deliver_next(); });
}

void ClusterSim::deliver_next() {
  const int pool = network_.front().pool;
  const Request r = network_.front().r;
  network_.pop_front();
  const Pool& p = pools_[static_cast<std::size_t>(pool)];
  touch(p.node);  // inject() stamps the request with the node's now().
  Node& node = nodes_[static_cast<std::size_t>(p.node)];
  const bool over_admission = config_.node_admission_cap > 0 &&
                              node.in_flight >= config_.node_admission_cap;
  const bool accepted = !over_admission && p.runtime->inject(r);
  if (!accepted) {
    --loads_[static_cast<std::size_t>(pool)].assigned;
    ++stats_.total_dropped;
    if (r.recorded) ++stats_.dropped;
    return;
  }
  ++node.in_flight;
  if (r.recorded) ++stats_.admitted;
}

void ClusterSim::on_pool_complete(int pool, serve::ServeRuntime* incarnation,
                                  int node, const Request& r) {
  const Pool& p = pools_[static_cast<std::size_t>(pool)];
  --loads_[static_cast<std::size_t>(pool)].assigned;
  --nodes_[static_cast<std::size_t>(node)].in_flight;
  ++stats_.total_completed;
  const SimTime done = incarnation->simulator().now() + config_.hop;
  if (r.recorded) {
    ++stats_.completed;
    stats_.latency.record((done - r.arrival) * 1000);
    stats_.queue_wait.record((r.started - r.arrival) * 1000);
    ++completed_by_node_[static_cast<std::size_t>(node)];
  }
  // A draining incarnation retires the moment its tail empties; deferred to
  // a fresh event because retire() finishes the very worker that is
  // executing this completion path.
  if (incarnation != p.runtime && incarnation->in_flight() == 0 &&
      !incarnation->retired()) {
    Simulator& sim = incarnation->simulator();
    sim.schedule_at(sim.now(), [incarnation] {
      if (!incarnation->retired() && incarnation->in_flight() == 0)
        incarnation->retire();
    });
  }
}

void ClusterSim::rebalance_once() {
  epoch();
  rekey_touched();
}

void ClusterSim::epoch() {
  const SimTime t = cq_.now();
  ++epoch_index_;

  // The frontend's view of each node's load: requests assigned to pools
  // currently homed there, in-transit included. Draining remainders on the
  // old node are excluded on purpose — load should follow where new
  // traffic lands. One pass over pools serves both loops below.
  const auto nodes = static_cast<std::size_t>(config_.nodes);
  std::vector<std::int64_t> assigned(nodes, 0);
  for (std::size_t p = 0; p < pools_.size(); ++p)
    assigned[static_cast<std::size_t>(pools_[p].node)] += loads_[p].assigned;
  std::vector<double> capacity(nodes);
  for (int n = 0; n < config_.nodes; ++n)
    capacity[static_cast<std::size_t>(n)] = node_effective_capacity(n);

  // Loads are normalized by each machine's *current* effective capacity —
  // the paper's thesis applied at the global tier: a backlog on a throttled
  // machine is worse than the same backlog on a healthy one, and raw queue
  // counts cannot tell them apart.
  double mean = 0.0;
  double max_load = 0.0;
  int hottest = 0;
  std::vector<double> loads(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    const double l = static_cast<double>(assigned[n]) / capacity[n];
    loads[n] = l;
    mean += l;
    if (l > max_load) {
      max_load = l;
      hottest = static_cast<int>(n);
    }
  }
  mean /= static_cast<double>(config_.nodes);
  const double fli = mean > 1e-12 ? max_load / mean - 1.0 : 0.0;
  peak_imbalance_ = std::max(peak_imbalance_, fli);

  obs::RebalanceRecord rec;
  rec.ts_us = t;
  rec.epoch = epoch_index_;
  rec.imbalance = fli;
  rec.threshold = config_.rebalance.threshold;

  if (!config_.rebalance.enabled || fli < config_.rebalance.threshold) {
    rec.outcome = obs::RebalanceOutcome::BelowThreshold;
  } else if (epoch_index_ - last_migration_epoch_ <=
             config_.rebalance.cooldown_epochs) {
    rec.outcome = obs::RebalanceOutcome::Cooldown;
  } else {
    // Busiest pool on the hottest node...
    int candidate = -1;
    for (int p = 0; p < static_cast<int>(pools_.size()); ++p) {
      const Pool& pool = pools_[static_cast<std::size_t>(p)];
      if (pool.node != hottest) continue;
      if (candidate < 0 ||
          loads_[static_cast<std::size_t>(p)].assigned >
              loads_[static_cast<std::size_t>(candidate)].assigned)
        candidate = p;
    }
    // ...to the node whose predicted ratio after adopting the pool (its
    // current backlog included) is lowest. Capacity-blind "coldest by
    // load" would pick a freshly drained slow machine — it looks idle —
    // and ping-pong the pool straight back; depressed effective capacity
    // disqualifies it here. Ties break to the lowest node id.
    int coldest = -1;
    double best_predicted = 0.0;
    if (candidate >= 0) {
      const double pool_load = static_cast<double>(
          loads_[static_cast<std::size_t>(candidate)].assigned);
      for (int n = 0; n < config_.nodes; ++n) {
        if (n == hottest) continue;
        const auto i = static_cast<std::size_t>(n);
        const double predicted =
            (static_cast<double>(assigned[i]) + pool_load) / capacity[i];
        if (coldest < 0 || predicted < best_predicted) {
          best_predicted = predicted;
          coldest = n;
        }
      }
    }
    // The improvement gate: migrate only when the best destination's
    // predicted capacity-scaled ratio (pool backlog included) undercuts the
    // source node's by at least this fraction. A pool's backlog travels with
    // it, so moving it between equally healthy machines fixes nothing —
    // without this gate the hottest-node title follows the backlog and the
    // pool bounces every post-cooldown epoch until the backlog drains.
    constexpr double kMinImprovement = 0.25;
    const double required = (1.0 - kMinImprovement) * max_load;
    if (candidate < 0 || coldest < 0 || best_predicted >= required) {
      rec.outcome = obs::RebalanceOutcome::NoCandidate;
    } else {
      rec.outcome = obs::RebalanceOutcome::Migrated;
      rec.pool = candidate;
      rec.from_node = hottest;
      rec.to_node = coldest;
      rec.from_load = loads[static_cast<std::size_t>(hottest)];
      rec.to_load = loads[static_cast<std::size_t>(coldest)];

      touch(hottest);
      touch(coldest);
      Pool& pool = pools_[static_cast<std::size_t>(candidate)];
      serve::ServeRuntime* old_rt = pool.runtime;
      serve::ServeRuntime* fresh = open_pool_on(candidate, coldest);
      nodes_[static_cast<std::size_t>(coldest)].stack->manage(
          *nodes_[static_cast<std::size_t>(coldest)].sim, fresh->workers());

      // Waiting requests chase the pool across the wire; the in-service
      // tail finishes on the source, then the old incarnation retires.
      const auto drained = old_rt->drain_queued();
      rec.drained = static_cast<std::int64_t>(drained.size());
      nodes_[static_cast<std::size_t>(hottest)].in_flight -= rec.drained;
      for (const Request& r : drained) {
        // Back out the original admission; delivery at the destination
        // re-admits (or drops), so each request nets to one count.
        if (r.recorded) --stats_.admitted;
        send(candidate, r);
      }
      if (old_rt->in_flight() == 0) {
        Simulator& sim = old_rt->simulator();
        sim.schedule_at(sim.now(), [old_rt] {
          if (!old_rt->retired() && old_rt->in_flight() == 0)
            old_rt->retire();
        });
      }
      last_migration_epoch_ = epoch_index_;
      ++pool_migrations_;
    }
  }
  if (recorder_ != nullptr) recorder_->rebalances().add(rec);

  const SimTime next = t + config_.rebalance.epoch;
  if (next < config_.duration)
    cq_.schedule(next, [this] { epoch(); });
}

ClusterResult ClusterSim::run() {
  const SimTime first = arrivals_.next(0);
  if (first < config_.duration)
    cq_.schedule(first, [this, first] { arrive(first); });
  if (config_.rebalance.epoch > 0 &&
      config_.rebalance.epoch < config_.duration)
    cq_.schedule(config_.rebalance.epoch, [this] { epoch(); });

  int until_trim = kSegmentTrimEvery;
  while (!cq_.empty() && cq_.next_time() <= config_.duration) {
    advance_due(cq_.next_time());
    cq_.run_next();
    rekey_touched();
    if (recorder_ != nullptr && --until_trim == 0) {
      trim_segments();
      until_trim = kSegmentTrimEvery;
    }
  }
  advance_nodes(config_.duration);
  for (Pool& p : pools_)
    for (auto& inc : p.incarnations)
      if (!inc.rt->retired()) inc.rt->close();

  stats_.in_transit_end = static_cast<std::int64_t>(network_.size());
  stats_.in_flight_end = 0;
  for (const Pool& p : pools_)
    for (const auto& inc : p.incarnations)
      if (!inc.rt->retired()) stats_.in_flight_end += inc.rt->in_flight();

  ClusterResult result;
  result.stats = stats_;
  result.generated = stats_.total_generated;
  result.goodput_rps = config_.duration > config_.warmup
                           ? static_cast<double>(stats_.completed) /
                                 to_sec(config_.duration - config_.warmup)
                           : 0.0;
  result.pool_migrations = pool_migrations_;
  result.peak_imbalance = peak_imbalance_;
  result.completed_by_node = completed_by_node_;

  if (recorder_ != nullptr) {
    for (Node& node : nodes_)
      export_run_to_recorder(node.sim->metrics(), *recorder_);
    if (config_.export_result) export_result_to_recorder(result, *recorder_);
  }
  return result;
}

ClusterResult run_cluster(const ClusterConfig& config) {
  ClusterSim sim(config);
  return sim.run();
}

void export_result_to_recorder(const ClusterResult& result,
                               obs::RunRecorder& rec) {
  rec.add_latency_histogram("cluster_latency", result.stats.latency);
  rec.add_latency_histogram("cluster_queue_wait", result.stats.queue_wait);
  rec.set_counter("cluster.offered", result.stats.offered);
  rec.set_counter("cluster.admitted", result.stats.admitted);
  rec.set_counter("cluster.completed", result.stats.completed);
  rec.set_counter("cluster.dropped", result.stats.dropped);
  rec.set_counter("cluster.generated", result.stats.total_generated);
  rec.set_counter("cluster.pool_migrations", result.pool_migrations);
}

ClusterResult run_cluster_repeats(const ClusterConfig& config, int repeats,
                                  int jobs) {
  return serve::run_replicas(
      config, repeats, jobs, run_cluster,
      [](ClusterResult& out, const ClusterResult& run) {
        out.stats.offered += run.stats.offered;
        out.stats.admitted += run.stats.admitted;
        out.stats.dropped += run.stats.dropped;
        out.stats.completed += run.stats.completed;
        out.stats.total_generated += run.stats.total_generated;
        out.stats.total_completed += run.stats.total_completed;
        out.stats.total_dropped += run.stats.total_dropped;
        out.stats.in_transit_end += run.stats.in_transit_end;
        out.stats.in_flight_end += run.stats.in_flight_end;
        out.stats.latency.merge(run.stats.latency);
        out.stats.queue_wait.merge(run.stats.queue_wait);
        out.generated += run.generated;
        out.pool_migrations += run.pool_migrations;
        out.peak_imbalance = std::max(out.peak_imbalance, run.peak_imbalance);
        for (std::size_t n = 0; n < out.completed_by_node.size() &&
                                n < run.completed_by_node.size();
             ++n)
          out.completed_by_node[n] += run.completed_by_node[n];
      });
}

}  // namespace speedbal::cluster
