#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "app/barrier.hpp"
#include "cluster/policy.hpp"
#include "core/experiment.hpp"
#include "perturb/timeline.hpp"
#include "serve/dispatch.hpp"
#include "util/enum_names.hpp"
#include "util/json.hpp"
#include "workload/arrivals.hpp"

namespace speedbal::check {

/// Which stack a fuzz episode exercises: a batch SPMD application (the
/// paper's Sections 3-6 configurations), the single-machine request-serving
/// runtime, or the multi-node cluster simulation on top of it.
enum class Mode { Spmd, Serve, Cluster };

inline constexpr auto kModeNames =
    enum_names<Mode>("mode", "spmd", "serve", "cluster");
static_assert(kModeNames.ends_at(Mode::Cluster));

inline const char* to_string(Mode m) { return kModeNames[m]; }
inline Mode parse_mode(std::string_view name) { return kModeNames.parse(name); }

/// Deliberate defect injected into an episode so the harness can prove each
/// invariant class actually fires (and so a failing scenario — including an
/// artificial one — is replayable and shrinkable from its JSON spec alone).
/// None is the only mode generate() ever emits; the others exist for the
/// broken-stub tests and `fuzzsim --broken`.
enum class BrokenMode {
  None,       ///< Honest episode.
  CrossNuma,  ///< A SPEED-cause migration crosses a NUMA boundary.
  Cooldown,   ///< Two SPEED-cause migrations share a core within the block.
  Threshold,  ///< A logged pull whose source was not below T_s * global.
  LoseTask,   ///< A thread is parked and forgotten (lost-task / liveness).
  HotPotato,  ///< A SPEED-cause pull pair ping-pongs one task A->B->A.
};

inline constexpr auto kBrokenModeNames = enum_names<BrokenMode>(
    "broken mode", "none", "cross-numa", "cooldown", "threshold", "lose-task",
    "hot-potato");
static_assert(kBrokenModeNames.ends_at(BrokenMode::HotPotato));

inline const char* to_string(BrokenMode b) { return kBrokenModeNames[b]; }
inline BrokenMode parse_broken_mode(std::string_view name) {
  return kBrokenModeNames.parse(name);
}

/// A replay spec spells each perturbation as its compact spec text.
struct PerturbSpecText {
  std::string operator[](const perturb::PerturbEvent& ev) const {
    return ev.to_spec();
  }
  perturb::PerturbEvent parse(std::string_view spec) const {
    return perturb::PerturbTimeline::parse_spec(spec);
  }
};

/// One randomized, fully replayable fuzz scenario: every stochastic choice
/// the episode makes downstream flows from `seed`, and every structural
/// choice is a field here, so the JSON round-trip (to_json / from_json) is
/// the complete replay spec the minimizer shrinks and `fuzzsim --replay`
/// consumes.
struct FuzzScenario {
  std::uint64_t seed = 1;
  std::string topo = "generic4";  ///< presets::by_name key.
  Mode mode = Mode::Spmd;
  Policy policy = Policy::Speed;
  int cores = 4;  ///< Managed cores (taskset over the first `cores`).

  // SPMD episode shape.
  int threads = 6;
  int phases = 2;
  double work_per_phase_us = 20000.0;
  double work_jitter = 0.0;
  WaitPolicy barrier = WaitPolicy::Yield;

  // Serve episode shape.
  int workers = 6;
  workload::ArrivalKind arrival = workload::ArrivalKind::Poisson;
  workload::ServiceKind service = workload::ServiceKind::Exp;
  double utilization = 0.7;  ///< Offered load / managed-core capacity.
  double mean_service_us = 3000.0;
  SimTime duration = sec(1);
  bool serve_busy_poll = false;  ///< IdleMode::Yield workers.
  /// Shard dispatch of a serve episode (SHARE always dispatches weighted).
  /// Defaults to the runtime's JSQ, which pre-dispatch replay specs ran.
  serve::DispatchPolicy serve_dispatch = serve::DispatchPolicy::JoinShortestQueue;

  // Cluster episode shape (reuses the serve fields per node: `workers` is
  // workers per pool, `utilization` is cluster-wide offered load).
  int nodes = 3;
  cluster::ClusterDispatch cluster_dispatch = cluster::ClusterDispatch::JsqD;
  int jsq_d = 2;
  double hop_us = 200.0;
  bool cluster_rebalance = true;
  int perturb_node = 0;  ///< Node the perturb timeline applies to.

  // Speed-balancer knobs under test (Section 5 rules the checker asserts).
  SimTime balance_interval = msec(50);
  double threshold = 0.9;

  // SHARE (speed-weighted work partitioning) knobs; only bind under
  // Policy::Share. Defaults match pre-hetero replay specs, whose JSON omits
  // these fields entirely.
  bool share_count = false;        ///< Uniform-share (count) baseline source.
  double min_share = 0.02;         ///< Per-core share floor.
  double share_hysteresis = 0.02;  ///< Min max-delta to adopt a repartition.

  /// Wrap the speed balancer in the adaptive tuning controller (only valid
  /// — and only generated — under Policy::Speed). Default false so
  /// pre-adaptive replay specs, whose JSON omits the field, keep loading.
  bool adaptive = false;

  /// Scripted interference applied mid-episode.
  std::vector<perturb::PerturbEvent> perturb;

  BrokenMode broken = BrokenMode::None;

  /// Shrink-ordering metric: strictly decreases on every accepted shrink
  /// step (counts tasks, phases, cores, perturbations, and log2 of the work
  /// and duration magnitudes).
  int size() const;

  /// One-line human summary ("spmd SPEED generic4 cores=4 threads=6 ...").
  std::string summary() const;

  /// Canonical JSON spec; from_json(to_json()) reproduces an identical
  /// scenario (and therefore a byte-identical episode under --replay).
  std::string to_json() const;
  static FuzzScenario from_json(std::string_view text);
  static FuzzScenario load_file(const std::string& path);

  /// Throws std::invalid_argument when fields are out of range (bad topo
  /// name, cores exceeding the machine, non-positive work...).
  void validate() const;

  /// The replay spec's fields (util/json field list). Keys added after the
  /// first specs were written are optional, so those specs keep loading
  /// with the defaults above; every other key is required.
  template <class S, class F>
  static void fields(S& sc, F&& f) {
    f("seed", sc.seed);
    f("topo", sc.topo);
    f("mode", sc.mode, kModeNames);
    f("policy", sc.policy, kPolicyNames);
    f("cores", sc.cores);
    f("threads", sc.threads);
    f("phases", sc.phases);
    f("work_per_phase_us", sc.work_per_phase_us);
    f("work_jitter", sc.work_jitter);
    f("barrier", sc.barrier, kWaitPolicyNames);
    f("workers", sc.workers);
    f("arrival", sc.arrival, workload::kArrivalKindNames);
    f("service", sc.service, workload::kServiceKindNames);
    f("utilization", sc.utilization);
    f("mean_service_us", sc.mean_service_us);
    f("duration_us", sc.duration);
    f("serve_busy_poll", sc.serve_busy_poll);
    f(optional_key("serve_dispatch"), sc.serve_dispatch,
      serve::kDispatchPolicyNames);
    f(optional_key("nodes"), sc.nodes);
    f(optional_key("cluster_dispatch"), sc.cluster_dispatch,
      cluster::kClusterDispatchNames);
    f(optional_key("jsq_d"), sc.jsq_d);
    f(optional_key("hop_us"), sc.hop_us);
    f(optional_key("cluster_rebalance"), sc.cluster_rebalance);
    f(optional_key("perturb_node"), sc.perturb_node);
    f("balance_interval_us", sc.balance_interval);
    f("threshold", sc.threshold);
    f(optional_key("share_count"), sc.share_count);
    f(optional_key("min_share"), sc.min_share);
    f(optional_key("share_hysteresis"), sc.share_hysteresis);
    f(optional_key("adaptive"), sc.adaptive);
    f("perturb", sc.perturb, PerturbSpecText{});
    f("broken", sc.broken, kBrokenModeNames);
  }
};

/// Draw a scenario from the constrained distributions (topology mix —
/// including heterogeneous big.LITTLE and frequency-ladder machines — task
/// counts up to ~2.5x oversubscription, all six policies, 0-3 perturbation
/// events plus DVFS ramps, serve workloads across all arrival/service
/// kinds). Deterministic in `seed`; never emits a broken scenario.
FuzzScenario generate(std::uint64_t seed);

}  // namespace speedbal::check
