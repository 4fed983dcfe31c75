#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/policy.hpp"
#include "obs/recorder.hpp"
#include "perturb/sim_driver.hpp"
#include "perturb/timeline.hpp"
#include "serve/policy_stack.hpp"
#include "serve/scenarios.hpp"
#include "sim/event_queue.hpp"
#include "util/fifo.hpp"
#include "util/winner_tree.hpp"
#include "workload/arrivals.hpp"

namespace speedbal::cluster {

using serve::Request;

/// Global rebalancer tunables: the HemoCell pattern — compute a fractional
/// load imbalance per epoch and only rebalance when it crosses a threshold,
/// with a cooldown so one migration's transient never triggers the next.
struct RebalanceParams {
  bool enabled = true;
  /// Epoch period; one imbalance measurement + at most one pool migration
  /// per epoch (the cluster analogue of the paper's balance interval B).
  SimTime epoch = msec(250);
  /// Act when max(node load per capacity) / mean − 1 exceeds this.
  double threshold = 0.5;
  /// Epochs after a migration during which the rebalancer only observes —
  /// drained queues and warmup make loads stale, like the paper's
  /// two-interval post-migration block.
  int cooldown_epochs = 2;
};

/// One simulated cluster: `nodes` machines (one Simulator each, running the
/// per-node balancer stack of ServeConfig), `pools_per_node` worker pools
/// per machine at start, a frontend dispatching over pools, and the global
/// rebalancer migrating whole pools between machines.
struct ClusterConfig {
  int nodes = 16;
  int pools_per_node = 1;
  /// Per-node machine model and core restriction (serve semantics).
  Topology topo = Topology::build({});
  int cores = 0;
  /// Per-node balancing policy (SPEED/LOAD/PINNED/DWRR/ULE/NONE).
  Policy policy = Policy::Speed;
  /// Per-pool runtime parameters; `serve.workers` is workers *per pool*.
  serve::ServeParams serve;

  ClusterDispatch dispatch = ClusterDispatch::JsqD;
  int jsq_d = 2;
  /// One-way network hop (frontend -> node and node -> frontend); charged
  /// once on delivery and once on the response.
  SimTime hop = usec(200);
  /// Bounded per-node admission: a request delivered to a node already
  /// holding this many undelivered+unfinished requests is dropped. <= 0
  /// disables (pool queue capacity still applies).
  int node_admission_cap = 0;

  /// Cluster-wide open-loop load.
  workload::ArrivalSpec arrival;
  workload::ServiceSpec service;
  SimTime duration = sec(10);
  SimTime warmup = sec(1);
  std::uint64_t seed = 42;

  SpeedBalanceParams speed = serve::serve_speed_defaults();
  LinuxLoadParams linux_load;
  DwrrParams dwrr;
  UleParams ule;
  hetero::ShareParams share;
  /// Online tuning of the SPEED constants: each node's stack wraps its
  /// speed balancer in its own adaptive controller (per-node trajectories;
  /// the node balancers run unrecorded, so tuning epochs stay node-local).
  AdaptiveParams adaptive;
  SimParams sim;
  RebalanceParams rebalance;

  /// Per-node scripted interference, keyed by node id (e.g. a DVFS step on
  /// node 0 only) — the scenario the rebalancer exists for.
  std::map<int, perturb::PerturbTimeline> node_perturb;

  obs::RunRecorder* recorder = nullptr;
  bool export_result = true;
};

/// Cluster-level tail-latency accounting. Counters cover post-warmup
/// ("recorded") requests; the `total_*` set counts every request including
/// warmup, for the conservation invariant. Latency includes both network
/// hops; queue_wait is time from frontend arrival to entering service.
struct ClusterStats {
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t dropped = 0;  ///< Admission-cap + pool-queue drops.
  std::int64_t completed = 0;
  LatencyHistogram latency;
  LatencyHistogram queue_wait;

  // All-requests conservation counters (warmup included).
  std::int64_t total_generated = 0;
  std::int64_t total_completed = 0;
  std::int64_t total_dropped = 0;
  std::int64_t in_transit_end = 0;  ///< Deliveries still in the network at end.
  std::int64_t in_flight_end = 0;   ///< Queued or in service on a node at end.

  double drop_rate() const {
    return offered > 0
               ? static_cast<double>(dropped) / static_cast<double>(offered)
               : 0.0;
  }
};

struct ClusterResult {
  ClusterStats stats;
  std::int64_t generated = 0;  ///< == stats.total_generated.
  double goodput_rps = 0.0;
  /// Pool migrations the global rebalancer performed.
  std::int64_t pool_migrations = 0;
  /// Largest fractional load imbalance any epoch observed.
  double peak_imbalance = 0.0;
  /// Completed requests per node id (live incarnations' homes at completion
  /// time), for placement assertions in tests.
  std::vector<std::int64_t> completed_by_node;
};

/// The cluster simulation driver. One EventQueue orders cluster-level
/// events (arrivals, hop deliveries, rebalance epochs); before each event
/// at time t every node Simulator with an event due at or before t runs to
/// t, in ascending node id, so node-local activity always precedes cluster
/// activity at the same instant and the whole run is deterministic under
/// the seed. A node the event itself acts on is brought to t first. Node
/// simulators never enqueue cluster events themselves — completions record
/// immediately (the response hop is a constant) — which is what makes the
/// conservative advance sound, and skipping nodes with nothing due exact.
class ClusterSim {
 public:
  explicit ClusterSim(const ClusterConfig& config);
  ~ClusterSim();

  ClusterResult run();

  // Introspection for tests and invariant checks.
  int pool_node(int pool) const { return pools_[static_cast<std::size_t>(pool)].node; }
  int num_pools() const { return static_cast<int>(pools_.size()); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Node n's simulator, for post-run metric harvest (e.g. the per-node
  /// migration logs the oscillation invariant checks).
  const Simulator& node_sim(int n) const {
    return *nodes_[static_cast<std::size_t>(n)].sim;
  }
  const ClusterStats& stats() const { return stats_; }
  /// Live + draining incarnations' in-flight totals summed per node.
  std::int64_t node_in_flight(int node) const {
    return nodes_[static_cast<std::size_t>(node)].in_flight;
  }
  /// Force one rebalance pass now (tests drive epochs directly).
  void rebalance_once();

 private:
  struct Incarnation {
    std::unique_ptr<serve::ServeRuntime> rt;
    int node = -1;
  };
  struct Pool {
    int node = -1;
    serve::ServeRuntime* runtime = nullptr;  ///< Live incarnation.
    /// Every incarnation ever created, kept alive until the run ends so
    /// draining pools finish their in-service tails safely.
    std::vector<Incarnation> incarnations;
  };
  struct Node {
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<serve::PolicyStack> stack;
    std::unique_ptr<perturb::SimPerturbDriver> perturber;
    std::vector<CoreId> cores;
    /// Admitted, unfinished requests on this node, draining incarnations
    /// included: their in-service tails still occupy the machine.
    std::int64_t in_flight = 0;
  };

  /// Run every node with an event due at or before t to t, ascending id.
  void advance_due(SimTime t);
  /// Run every node to t, ascending id (the end-of-run drain).
  void advance_nodes(SimTime t);
  /// Bring node n to the current cluster time before a cluster action
  /// mutates it; the node is re-keyed once the action is done.
  void touch(int n);
  void rekey_touched();
  /// Key node n in due_ at its next event time.
  void rekey(int n);
  void arrive(SimTime t);
  /// Put `r` on the wire to `pool`; it arrives one hop from now.
  void send(int pool, const Request& r);
  /// The delivery event: hand the network's oldest request to its pool.
  void deliver_next();
  void on_pool_complete(int pool, serve::ServeRuntime* incarnation, int node,
                        const Request& r);
  serve::ServeRuntime* open_pool_on(int pool, int node);
  void epoch();
  /// Recorded runs: cut each node's kept run segments down to what its node
  /// order export can still place in the recorder's table.
  void trim_segments();
  /// Sum of the node's online managed cores' *current* clock scales — the
  /// machine's effective capacity as of now, DVFS and hotplug included.
  double node_effective_capacity(int node) const;

  ClusterConfig config_;
  EventQueue cq_;
  std::vector<Node> nodes_;
  std::vector<Pool> pools_;
  /// Dispatch-level load per pool id (see PoolLoad), handed to pick_pool.
  std::vector<PoolLoad> loads_;
  /// Node next-event times, a node with nothing pending keyed last (at the
  /// largest SimTime, never due), so the due nodes come out in ascending id.
  WinnerTree<SimTime> due_;
  std::vector<int> due_scratch_;
  std::vector<int> touched_;
  workload::ArrivalProcess arrivals_;
  workload::ServiceTimeDist service_;
  Rng dispatch_rng_;
  std::uint64_t rr_cursor_ = 0;
  std::int64_t next_id_ = 0;
  /// A request on the wire and the pool it is addressed to.
  struct Delivery {
    int pool = 0;
    Request r;
  };
  /// Requests in the network, oldest first. Every delivery is scheduled at
  /// now() + hop, and now() never decreases while seqs increase, so
  /// deliveries fire in the order they were sent: the delivery event only
  /// captures `this` (it fits EventFn's inline buffer) and pops the head.
  Fifo<Delivery> network_;
  std::int64_t epoch_index_ = 0;
  std::int64_t last_migration_epoch_ = -1000000;
  std::int64_t pool_migrations_ = 0;
  double peak_imbalance_ = 0.0;
  ClusterStats stats_;
  std::vector<std::int64_t> completed_by_node_;
  obs::RunRecorder* recorder_ = nullptr;
};

/// Run the cluster scenario once.
ClusterResult run_cluster(const ClusterConfig& config);

/// serve::run_replicas over run_cluster: salted seeds, merge in replica
/// order, only replica 0 records — byte-identical for any `jobs`.
ClusterResult run_cluster_repeats(const ClusterConfig& config, int repeats,
                                  int jobs);

/// Write the cluster result's summary (histograms + cluster.* counters)
/// into `rec`.
void export_result_to_recorder(const ClusterResult& result,
                               obs::RunRecorder& rec);

}  // namespace speedbal::cluster
