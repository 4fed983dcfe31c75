#include "check/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "topo/presets.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace speedbal::check {

int FuzzScenario::size() const {
  int s = cores + static_cast<int>(perturb.size()) + (adaptive ? 1 : 0);
  if (mode == Mode::Spmd) {
    s += threads + phases;
    s += static_cast<int>(std::ceil(std::log2(std::max(work_per_phase_us, 2.0))));
  } else {
    s += workers;
    s += static_cast<int>(std::ceil(std::log2(std::max(to_sec(duration) * 1e3, 2.0))));
    if (mode == Mode::Cluster) s += nodes;
  }
  return s;
}

std::string FuzzScenario::summary() const {
  std::ostringstream os;
  os << to_string(mode) << " " << speedbal::to_string(policy) << " " << topo
     << " cores=" << cores;
  if (mode == Mode::Spmd)
    os << " threads=" << threads << " phases=" << phases
       << " work=" << work_per_phase_us << "us barrier=" << speedbal::to_string(barrier);
  else
    os << " workers=" << workers << " arrival=" << workload::to_string(arrival)
       << " service=" << workload::to_string(service) << " util=" << utilization;
  if (mode == Mode::Cluster)
    os << " nodes=" << nodes
       << " dispatch=" << cluster::to_string(cluster_dispatch)
       << " rebalance=" << (cluster_rebalance ? 1 : 0);
  if (policy == Policy::Share)
    os << " share_count=" << (share_count ? 1 : 0) << " floor=" << min_share;
  if (adaptive) os << " adaptive=1";
  os << " perturb=" << perturb.size() << " seed=" << seed;
  if (broken != BrokenMode::None) os << " broken=" << to_string(broken);
  return os.str();
}

std::string FuzzScenario::to_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  write_record(w, *this);
  return os.str();
}

FuzzScenario FuzzScenario::from_json(std::string_view text) {
  FuzzScenario sc;
  read_record(JsonValue::parse(std::string(text)), sc);
  sc.validate();
  return sc;
}

FuzzScenario FuzzScenario::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

void FuzzScenario::validate() const {
  const Topology t = presets::by_name(topo);  // Throws on an unknown name.
  if (cores < 1 || cores > t.num_cores())
    throw std::invalid_argument("scenario: cores out of range for " + topo);
  if (mode == Mode::Spmd) {
    if (threads < 1) throw std::invalid_argument("scenario: threads < 1");
    if (phases < 1) throw std::invalid_argument("scenario: phases < 1");
    if (work_per_phase_us <= 0.0)
      throw std::invalid_argument("scenario: work_per_phase_us <= 0");
    if (work_jitter < 0.0 || work_jitter >= 1.0)
      throw std::invalid_argument("scenario: work_jitter out of [0,1)");
  } else {
    if (workers < 1) throw std::invalid_argument("scenario: workers < 1");
    if (utilization <= 0.0)
      throw std::invalid_argument("scenario: utilization <= 0");
    if (mean_service_us <= 0.0)
      throw std::invalid_argument("scenario: mean_service_us <= 0");
    if (duration < msec(200))
      throw std::invalid_argument("scenario: duration < 200ms");
    if (broken != BrokenMode::None)
      throw std::invalid_argument("scenario: broken stubs are spmd-only");
  }
  if (mode == Mode::Cluster) {
    if (nodes < 2 || nodes > 64)
      throw std::invalid_argument("scenario: nodes out of [2,64]");
    if (jsq_d < 1) throw std::invalid_argument("scenario: jsq_d < 1");
    if (hop_us < 0.0) throw std::invalid_argument("scenario: hop_us < 0");
    if (perturb_node < 0 || perturb_node >= nodes)
      throw std::invalid_argument("scenario: perturb_node out of range");
  }
  if (balance_interval <= 0)
    throw std::invalid_argument("scenario: balance_interval <= 0");
  if (threshold <= 0.0 || threshold > 1.0)
    throw std::invalid_argument("scenario: threshold out of (0,1]");
  if (min_share < 0.0 || min_share > 0.2)
    throw std::invalid_argument("scenario: min_share out of [0,0.2]");
  if (min_share * static_cast<double>(cores) >= 1.0)
    throw std::invalid_argument("scenario: min_share * cores >= 1");
  if (share_hysteresis < 0.0 || share_hysteresis >= 1.0)
    throw std::invalid_argument("scenario: share_hysteresis out of [0,1)");
  if (adaptive && policy != Policy::Speed)
    throw std::invalid_argument(
        "scenario: adaptive tuning requires the SPEED policy");
}

FuzzScenario generate(std::uint64_t seed) {
  Rng rng(seed);
  FuzzScenario sc;
  sc.seed = seed;

  // Topology mix: mostly small flat machines (fast episodes), with NUMA and
  // SMT presets often enough that the domain-blocking invariants get real
  // multi-node runs.
  const double topo_draw = rng.uniform();
  if (topo_draw < 0.70) {
    sc.topo = "generic" + std::to_string(rng.uniform_int(2, 6));
  } else if (topo_draw < 0.85) {
    sc.topo = "barcelona";  // 4 NUMA nodes x 4 cores.
  } else if (topo_draw < 0.95) {
    sc.topo = "nehalem";  // 2 nodes, SMT.
  } else {
    sc.topo = "tigerton";  // UMA, paired L2 caches.
  }
  const Topology topo = presets::by_name(sc.topo);
  sc.cores = static_cast<int>(
      rng.uniform_int(2, std::min(6, topo.num_cores())));

  // All five policies; SPEED weighted up since most Section-5 invariants
  // only bind under it.
  const double policy_draw = rng.uniform();
  if (policy_draw < 0.40) sc.policy = Policy::Speed;
  else if (policy_draw < 0.55) sc.policy = Policy::Load;
  else if (policy_draw < 0.70) sc.policy = Policy::Pinned;
  else if (policy_draw < 0.85) sc.policy = Policy::Dwrr;
  else sc.policy = Policy::Ule;

  sc.mode = rng.chance(0.3) ? Mode::Serve : Mode::Spmd;

  // SPMD shape: up to ~2.5x oversubscription, a few phases, enough work per
  // phase to span several balance intervals.
  sc.threads = static_cast<int>(
      rng.uniform_int(sc.cores, static_cast<std::int64_t>(2.5 * sc.cores)));
  sc.phases = static_cast<int>(rng.uniform_int(1, 3));
  sc.work_per_phase_us = rng.uniform(5000.0, 40000.0);
  sc.work_jitter = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 0.2);
  const WaitPolicy barriers[] = {WaitPolicy::Spin, WaitPolicy::Yield,
                                 WaitPolicy::Sleep, WaitPolicy::SleepPoll};
  sc.barrier = barriers[rng.uniform_int(0, 3)];

  // Serve shape: all arrival/service kinds, utilization into mild overload.
  sc.workers = static_cast<int>(rng.uniform_int(sc.cores, 2 * sc.cores));
  const workload::ArrivalKind arrivals[] = {workload::ArrivalKind::Poisson,
                                            workload::ArrivalKind::Bursty,
                                            workload::ArrivalKind::Diurnal};
  sc.arrival = arrivals[rng.uniform_int(0, 2)];
  const workload::ServiceKind services[] = {
      workload::ServiceKind::Fixed, workload::ServiceKind::Exp,
      workload::ServiceKind::LogNormal, workload::ServiceKind::Pareto};
  sc.service = services[rng.uniform_int(0, 3)];
  sc.utilization = rng.uniform(0.4, 1.05);
  sc.mean_service_us = rng.uniform(1000.0, 8000.0);
  sc.duration = static_cast<SimTime>(rng.uniform_int(msec(500), msec(1500)));
  sc.serve_busy_poll = rng.chance(0.5);

  sc.balance_interval = static_cast<SimTime>(rng.uniform_int(msec(20), msec(60)));
  sc.threshold = rng.uniform(0.80, 0.95);

  // 0-3 perturbations inside the episode's active window. Offline and
  // hog-start events are paired with their inverse so episodes do not
  // degenerate into a permanently smaller machine.
  const SimTime horizon = sc.mode == Mode::Serve ? sc.duration : msec(200);
  const int n_events = static_cast<int>(rng.uniform_int(0, 3));
  bool used_offline = false;
  for (int i = 0; i < n_events; ++i) {
    const SimTime at = rng.uniform_int(msec(10), std::max(msec(20), horizon));
    perturb::PerturbEvent ev;
    ev.at = at;
    const double kind_draw = rng.uniform();
    if (kind_draw < 0.4) {
      ev.kind = perturb::PerturbKind::Dvfs;
      ev.core = static_cast<int>(rng.uniform_int(0, sc.cores - 1));
      ev.scale = rng.uniform(0.4, 1.3);
      sc.perturb.push_back(ev);
    } else if (kind_draw < 0.6 && !used_offline && sc.cores >= 3) {
      used_offline = true;  // At most one offline pair per scenario.
      ev.kind = perturb::PerturbKind::CoreOffline;
      ev.core = static_cast<int>(rng.uniform_int(1, sc.cores - 1));
      sc.perturb.push_back(ev);
      perturb::PerturbEvent back = ev;
      back.kind = perturb::PerturbKind::CoreOnline;
      back.at = at + rng.uniform_int(msec(20), msec(100));
      sc.perturb.push_back(back);
    } else if (kind_draw < 0.8) {
      ev.kind = perturb::PerturbKind::HogStart;
      ev.core = static_cast<int>(rng.uniform_int(0, sc.cores - 1));
      sc.perturb.push_back(ev);
      perturb::PerturbEvent stop = ev;
      stop.kind = perturb::PerturbKind::HogStop;
      stop.at = at + rng.uniform_int(msec(50), msec(200));
      sc.perturb.push_back(stop);
    } else {
      ev.kind = perturb::PerturbKind::WorkSpike;
      ev.core = static_cast<int>(rng.uniform_int(0, sc.cores - 1));
      ev.work_us = rng.uniform(5000.0, 20000.0);
      sc.perturb.push_back(ev);
    }
  }

  // Cluster shape, drawn after everything else so the earlier fields of a
  // given seed are identical across modes (a cluster episode is the serve
  // shape replicated over a few nodes). The mode upgrade comes last for the
  // same reason.
  sc.nodes = static_cast<int>(rng.uniform_int(2, 5));
  const cluster::ClusterDispatch dispatches[] = {
      cluster::ClusterDispatch::RoundRobin,
      cluster::ClusterDispatch::LeastLoaded, cluster::ClusterDispatch::JsqD};
  sc.cluster_dispatch = dispatches[rng.uniform_int(0, 2)];
  // Deliberately past the pool count sometimes: JSQ(d) with d > pools must
  // degrade to full JSQ, and the fuzz should exercise that path.
  sc.jsq_d = static_cast<int>(rng.uniform_int(1, 8));
  sc.hop_us = rng.uniform(0.0, 500.0);
  sc.cluster_rebalance = !rng.chance(0.25);
  sc.perturb_node = static_cast<int>(rng.uniform_int(0, sc.nodes - 1));
  if (rng.chance(0.2)) sc.mode = Mode::Cluster;

  // Heterogeneity, drawn after everything else (like the cluster shape) so
  // pre-hetero seeds keep generating byte-identical scenarios. A hetero
  // upgrade swaps in an asymmetric-clock machine — big.LITTLE or a
  // frequency ladder — often runs the SHARE partitioning policy on it, and
  // sometimes throttles a core with a linear DVFS ramp mid-episode.
  if (rng.chance(0.30)) {
    if (rng.chance(0.5)) {
      const int big = static_cast<int>(rng.uniform_int(1, 3));
      const int little = static_cast<int>(rng.uniform_int(1, 3));
      const double ratios[] = {1.5, 2.0, 3.0, 4.0};
      char name[40];
      std::snprintf(name, sizeof name, "biglittle%d+%dx%g", big, little,
                    ratios[rng.uniform_int(0, 3)]);
      sc.topo = name;
    } else {
      sc.topo = "ladder" + std::to_string(rng.uniform_int(3, 8));
    }
    const Topology ht = presets::by_name(sc.topo);
    sc.cores = static_cast<int>(rng.uniform_int(2, ht.num_cores()));
    if (rng.chance(0.5)) {
      sc.policy = Policy::Share;
      sc.share_count = rng.chance(0.25);
      sc.min_share = rng.uniform(0.01, std::min(0.2, 0.8 / sc.cores));
      sc.share_hysteresis = rng.uniform(0.0, 0.05);
    }
    if (rng.chance(0.5)) {
      perturb::PerturbEvent ramp;
      ramp.kind = perturb::PerturbKind::DvfsRamp;
      ramp.at = rng.uniform_int(msec(10), std::max(msec(20), horizon));
      ramp.core = static_cast<int>(rng.uniform_int(0, sc.cores - 1));
      ramp.scale = rng.uniform(0.3, 1.2);
      ramp.ramp_over = rng.uniform_int(msec(10), msec(100));
      ramp.ramp_steps = static_cast<int>(rng.uniform_int(2, 16));
      sc.perturb.push_back(ramp);
    }
  }

  // Adaptive-tuning upgrade, drawn last (same append-only rule as the
  // cluster and hetero blocks) so every earlier field of a given seed is
  // unchanged from pre-adaptive builds. Only SPEED runs a controller, and
  // the hetero upgrade above may have rewritten the policy, so gate on the
  // final value.
  if (sc.policy == Policy::Speed && rng.chance(0.35)) sc.adaptive = true;

  // Serve shard dispatch (rr, least-loaded or jsq: the first three
  // policies), drawn last under the same append-only rule.
  sc.serve_dispatch = static_cast<serve::DispatchPolicy>(rng.uniform_int(0, 2));

  sc.validate();
  return sc;
}

}  // namespace speedbal::check
