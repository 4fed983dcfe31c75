// Golden fingerprints of every balancer stack a run can attach: the batch
// (spmd) experiment under each policy, the serving runtime under ULE, SHARE
// and SPEED with least-loaded dispatch, a DWRR serve episode on NUMA
// barcelona with hotplug and an overflowing run-segment cap, a recorded
// SPEED cluster episode with a pool migration, and the user-level count
// balancer of the speed-metric ablation. Each case pins the run's
// results exactly (runtimes as hexfloats) together with an FNV-1a digest of
// its full JSON run report, so any change to which balancer attaches when,
// in what order, or with which recorder moves a pinned value. Between them
// the recorded runs fill every record log: decisions, speed timeline, spans,
// run segments, shares, tuning epochs and rebalance epochs, and the
// reason-coverage case drives the SPEED pull rule through every rejection
// the simulator can log.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "app/multiprog.hpp"
#include "app/spmd.hpp"
#include "balance/linux_load.hpp"
#include "balance/userlevel_count.hpp"
#include "cluster/cluster.hpp"
#include "core/scenarios.hpp"
#include "serve/scenarios.hpp"
#include "topo/presets.hpp"
#include "util/json.hpp"
#include "workload/generator.hpp"
#include "workload/npb.hpp"

namespace speedbal {
namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string report_digest(const obs::RunRecorder& rec) {
  std::ostringstream os;
  rec.write_report_json(os);
  return hex64(fnv1a(os.str()));
}

/// Every repeat's completion flag, hexfloat runtime, policy migrations and
/// per-cause migration counts, then the recorded repeat's report digest.
std::string fingerprint(const ExperimentResult& res,
                        const obs::RunRecorder& rec) {
  std::ostringstream os;
  for (const RunResult& r : res.runs) {
    os << (r.completed ? "done " : "capped ") << hexfloat(r.runtime_s)
       << " policy=" << r.policy_migrations << " [";
    for (const auto& [cause, n] : r.migrations_by_cause)
      os << " " << to_string(cause) << "=" << n;
    os << " ] ";
  }
  os << "report=" << report_digest(rec);
  return os.str();
}

/// cg.S with 6 threads on 4 of generic4's cores, two repeats at seed 11,
/// repeat 0 recorded.
ExperimentConfig spmd_config(scenarios::Setup setup) {
  ExperimentConfig cfg =
      scenarios::npb_config(presets::generic(4), npb::by_name("cg.S"), 6, 4,
                            setup, /*repeats=*/2, /*seed=*/11);
  cfg.time_cap = sec(60);
  return cfg;
}

std::string run_spmd(ExperimentConfig cfg, obs::RunRecorder& rec) {
  cfg.recorder = &rec;
  return fingerprint(run_experiment(cfg), rec);
}

TEST(PolicyGolden, Load) {
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(spmd_config(scenarios::Setup::LoadYield), rec),
            "done 0x1.02f53c579f234p+1 policy=1 [ linux-periodic=1 ]"
            " done 0x1.02b81f969e3c9p+1 policy=1 [ linux-periodic=1 ]"
            " report=5d9d44060a0240e4");
}

TEST(PolicyGolden, Speed) {
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(spmd_config(scenarios::Setup::SpeedYield), rec),
            "done 0x1.01cbff47735c2p+1 policy=22 [ speed=22 ]"
            " done 0x1.019fdbd2fa0d7p+1 policy=20 [ linux-newidle=1 speed=20 ]"
            " report=d2bb6aa8cda10939");
  EXPECT_GT(rec.decisions().size(), 0u);
  EXPECT_GT(rec.timeline().snapshot().size(), 0u);
  EXPECT_GT(rec.run_segments().size(), 0u);
}

TEST(PolicyGolden, SpeedAdaptive) {
  ExperimentConfig cfg = spmd_config(scenarios::Setup::SpeedYield);
  cfg.adaptive.enabled = true;
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(cfg, rec),
            "done 0x1.01f7ad4b2745cp+1 policy=23 [ speed=23 ]"
            " done 0x1.01b2e59af9ebfp+1 policy=19 [ linux-newidle=1 speed=19 ]"
            " report=a2deadc104996110");
  EXPECT_GT(rec.tuning().size(), 0u);
}

TEST(PolicyGolden, Pinned) {
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(spmd_config(scenarios::Setup::Pinned), rec),
            "done 0x1.015a7d24180d4p+1 policy=0 [ ]"
            " done 0x1.015703f2d3c79p+1 policy=0 [ ]"
            " report=dd49f181d5205d6e");
}

TEST(PolicyGolden, Dwrr) {
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(spmd_config(scenarios::Setup::Dwrr), rec),
            "done 0x1.b24e8b7e4de3cp+1 policy=128 [ dwrr=128 ]"
            " done 0x1.9ff16b11c6d1ep+1 policy=102 [ dwrr=102 ]"
            " report=111c258998ac4f37");
}

TEST(PolicyGolden, Ule) {
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(spmd_config(scenarios::Setup::FreeBsd), rec),
            "done 0x1.016694898f606p+1 policy=0 [ ]"
            " done 0x1.0157603925bb8p+1 policy=0 [ ]"
            " report=dd49f181d5205d6e");
}

TEST(PolicyGolden, None) {
  ExperimentConfig cfg = spmd_config(scenarios::Setup::LoadYield);
  cfg.policy = Policy::None;
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(cfg, rec),
            "done 0x1.804b33daf8df8p+1 policy=0 [ ]"
            " done 0x1.80301a79fec9ap+1 policy=0 [ ]"
            " report=3a8b57493687b23f");
}

TEST(PolicyGolden, ShareOnBigLittle) {
  // The HETERO-SHARE shape: one thread per core, round-robin pinned, the
  // per-phase work split by measured speed.
  ExperimentConfig cfg = scenarios::npb_config(
      presets::by_name("biglittle4+4x3"), npb::by_name("cg.S"), 8, 8,
      scenarios::Setup::Pinned, /*repeats=*/2, /*seed=*/11);
  cfg.policy = Policy::Share;
  cfg.time_cap = sec(60);
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(cfg, rec),
            "done 0x1.be075f6fd21ffp-2 policy=0 [ ]"
            " done 0x1.bef3d3a1d324p-2 policy=0 [ ]"
            " report=692da830d8f69405");
  EXPECT_GT(rec.shares().size(), 0u);
}

TEST(PolicyGolden, ShareCountOnBigLittle) {
  // The HETERO-SHARE-COUNT shape: the same pinned machine, but the Count
  // source keeps shares uniform while every epoch still measures.
  ExperimentConfig cfg = scenarios::npb_config(
      presets::by_name("biglittle4+4x3"), npb::by_name("cg.S"), 8, 8,
      scenarios::Setup::Pinned, /*repeats=*/2, /*seed=*/11);
  cfg.policy = Policy::Share;
  cfg.share.source = hetero::ShareParams::Source::Count;
  cfg.time_cap = sec(60);
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(cfg, rec),
            "done 0x1.84f2cf95d4e9p-1 policy=0 [ ]"
            " done 0x1.84f227d028a1ep-1 policy=0 [ ]"
            " report=84f39499ff140646");
  EXPECT_GT(rec.shares().size(), 0u);
}

TEST(PolicyGolden, ShareOnLadder) {
  // The HETERO-LADDER-SHARE shape: one pinned thread per core of the
  // 8-step frequency ladder, work split by measured speed.
  const Topology topo = presets::by_name("ladder8");
  ExperimentConfig cfg = scenarios::npb_config(
      topo, npb::by_name("cg.S"), topo.num_cores(), topo.num_cores(),
      scenarios::Setup::Pinned, /*repeats=*/2, /*seed=*/11);
  cfg.policy = Policy::Share;
  cfg.time_cap = sec(60);
  obs::RunRecorder rec;
  EXPECT_EQ(run_spmd(cfg, rec),
            "done 0x1.4bf5a5332acfbp+0 policy=0 [ ]"
            " done 0x1.4c1beb18116ecp+0 policy=0 [ ]"
            " report=c045db227ef83a17");
  EXPECT_GT(rec.shares().size(), 0u);
}


/// A recorded SPEED episode built to reach every pull-rule reason the
/// simulator can emit: cg.S on `cores` cores of `topo` with a CPU hog on
/// core 2, shared-cache pairs on half the post-migration block, and core 1
/// hotplugged out from 500 ms to 900 ms.
ExperimentConfig reason_coverage_config(const char* topo, int threads,
                                        int cores) {
  ExperimentConfig cfg = scenarios::npb_config(
      presets::by_name(topo), npb::by_name("cg.S"), threads, cores,
      scenarios::Setup::SpeedYield, /*repeats=*/1, /*seed=*/11);
  cfg.time_cap = sec(60);
  cfg.cpu_hog = true;
  cfg.cpu_hog_core = 2;
  cfg.speed.shared_cache_block_scale = 0.5;
  cfg.perturb = perturb::PerturbTimeline::parse_specs(
      "at=500ms offline core=1; at=900ms online core=1");
  return cfg;
}

std::int64_t reason_count(const obs::RunRecorder& rec, obs::PullReason r) {
  return rec.decisions().counts()[static_cast<std::size_t>(r)];
}

TEST(PolicyGolden, SpeedReasonCoverage) {
  using R = obs::PullReason;
  // Barcelona's first two NUMA nodes with block_numa on: numa-blocked,
  // migration-blocked, hot-potato, no-victim, core-offline and a tie-break.
  obs::RunRecorder numa;
  EXPECT_EQ(run_spmd(reason_coverage_config("barcelona", 5, 8), numa),
            "done 0x1.2d2c493426784p+1 policy=11"
            " [ linux-newidle=1 speed=11 hotplug=1 ] report=f2573a5e9540019b");
  for (const R r : {R::Pulled, R::BelowAverage, R::AboveThreshold,
                    R::MigrationBlocked, R::NumaBlocked, R::NoCandidate,
                    R::NoVictim, R::HotPotato, R::CoreOffline})
    EXPECT_GT(reason_count(numa, r), 0) << obs::to_string(r);
  bool tie_break = false;
  for (const obs::DecisionRecord& d : numa.decisions().snapshot())
    tie_break = tie_break || (d.reason == R::Pulled && d.tie_break);
  EXPECT_TRUE(tie_break);

  // Four tigerton cores (two L2 pairs) with pulls confined to a cache
  // group: domain-blocked across the pairs.
  ExperimentConfig cfg = reason_coverage_config("tigerton", 5, 4);
  cfg.speed.max_migration_level = DomainLevel::Cache;
  obs::RunRecorder domain;
  EXPECT_EQ(run_spmd(cfg, domain),
            "done 0x1.2171b0468448dp+2 policy=24 [ speed=24 hotplug=1 ]"
            " report=e44c59eb3206e164");
  for (const R r : {R::Pulled, R::DomainBlocked, R::MigrationBlocked,
                    R::NoVictim, R::HotPotato, R::CoreOffline})
    EXPECT_GT(reason_count(domain, r), 0) << obs::to_string(r);
}

/// cg.S under SPEED-YIELD on all of `topo`'s cores, one repeat at seed 11,
/// recorded.
ExperimentConfig speed_all_cores_config(const char* topo, int threads) {
  const Topology t = presets::by_name(topo);
  ExperimentConfig cfg =
      scenarios::npb_config(t, npb::by_name("cg.S"), threads, t.num_cores(),
                            scenarios::Setup::SpeedYield, /*repeats=*/1,
                            /*seed=*/11);
  cfg.time_cap = sec(60);
  return cfg;
}

/// Whether some timeline sample reports `core` at exactly `speed`.
bool sampled_at(const obs::RunRecorder& rec, int core, double speed) {
  for (const obs::SpeedSample& s : rec.timeline().snapshot())
    if (s.core_speed[static_cast<std::size_t>(core)] == speed) return true;
  return false;
}

TEST(PolicyGolden, SpeedEmptyCoresAndSmt) {
  // big.LITTLE with fewer threads than cores: an empty core reports its
  // nominal speed, the clock scale (3.0 on big core 3, 1.0 on a LITTLE
  // core), so every sample pins the empty-core rule. Three threads leave
  // the big core empty and make no pull; six threads pull.
  obs::RunRecorder three;
  EXPECT_EQ(run_spmd(speed_all_cores_config("biglittle4+4x3", 3), three),
            "done 0x1.59185cee17a03p-1 policy=3 [ speed=3 ]"
            " report=14a9154d9f5d17ec");
  EXPECT_TRUE(sampled_at(three, 3, 3.0));
  EXPECT_TRUE(sampled_at(three, 7, 1.0));
  EXPECT_EQ(reason_count(three, obs::PullReason::Pulled), 0);

  obs::RunRecorder six;
  EXPECT_EQ(run_spmd(speed_all_cores_config("biglittle4+4x3", 6), six),
            "done 0x1.8628027d88c1ep-1 policy=8 [ speed=8 ]"
            " report=74ef799bf03e5a2c");
  EXPECT_TRUE(sampled_at(six, 7, 1.0));
  EXPECT_GE(reason_count(six, obs::PullReason::Pulled), 1);

  // Nehalem with the SMT adaptation on: a thread whose sibling context is
  // busy counts at the discounted speed in the samples.
  ExperimentConfig cfg = speed_all_cores_config("nehalem", 12);
  cfg.speed.smt_aware = true;
  obs::RunRecorder smt;
  EXPECT_EQ(run_spmd(cfg, smt),
            "done 0x1.01c26dce39b45p+0 policy=14 [ linux-newidle=2 speed=14 ]"
            " report=93f26755dc658a2d");
  EXPECT_GT(smt.timeline().size(), 0u);
}

/// bench/ablation_speed_metric's run, cut short: tigerton under the kernel
/// LOAD balancer plus the user-level CountBalancer on the first `cores`
/// cores, a uniform app of `threads` threads and four phases, optionally a
/// cpu-hog on core 0. Gives the elapsed time (hexfloat), the migrations by
/// cause and each thread's final core and migration count.
std::string run_count(bool with_hog, int threads, int cores,
                      std::uint64_t seed) {
  Simulator sim(presets::tigerton(), {}, seed);
  LinuxLoadBalancer lb;
  lb.attach(sim);
  std::unique_ptr<CpuHog> hog;
  if (with_hog) {
    hog = std::make_unique<CpuHog>(sim);
    hog->launch(0);
  }
  SpmdApp app(sim, workload::uniform_app(threads, 4, 1e6 / 4));
  app.launch(SpmdApp::Placement::LinuxFork, workload::first_cores(cores));
  CountBalancer count({}, app.threads(), workload::first_cores(cores));
  count.attach(sim);
  sim.run_while_pending([&] { return app.finished(); }, sec(60));

  std::ostringstream os;
  os << (app.finished() ? "done " : "capped ") << hexfloat(to_sec(app.elapsed()))
     << " [";
  for (const auto& [cause, n] : sim.metrics().migration_counts_by_cause())
    os << " " << to_string(cause) << "=" << n;
  os << " ]";
  for (const Task* t : app.threads())
    os << " " << t->core() << "/" << t->migrations();
  return os.str();
}

TEST(PolicyGolden, CountBalancer) {
  // The attach-time round-robin pin books one affinity move per thread
  // that LinuxFork placed elsewhere; the count pulls follow.
  EXPECT_EQ(run_count(false, 3, 2, 11),
            "done 0x1.a6ea747d805e6p+0 [ affinity=7 ] 0/3 1/2 0/2");
  EXPECT_EQ(run_count(true, 8, 8, 11),
            "done 0x1.000029f16b11cp+1 [ affinity=6 linux-newidle=1 ]"
            " 0/1 1/1 2/0 3/2 4/0 5/1 6/1 7/1");
}

/// Four generic4 cores serving exponential 2 ms requests at utilization 0.7
/// for 1.5 s, every request traced.
serve::ServeConfig serve_config(Policy policy, obs::RunRecorder& rec) {
  serve::ServeConfig cfg;
  cfg.topo = presets::generic(4);
  cfg.cores = 4;
  cfg.policy = policy;
  cfg.serve.workers = 6;
  cfg.serve.span_sampling_log2 = 0;
  if (policy == Policy::Share)
    cfg.serve.dispatch = serve::DispatchPolicy::Weighted;
  cfg.service.kind = workload::ServiceKind::Exp;
  cfg.service.mean_us = 2000.0;
  cfg.arrival.rate_rps = serve::rate_for_utilization(cfg.topo, 4, 0.7, 2000.0);
  cfg.duration = msec(1500);
  cfg.warmup = msec(200);
  cfg.seed = 11;
  cfg.perturb = perturb::PerturbTimeline::parse_specs(
      "at=300ms dvfs core=0 scale=0.5");
  cfg.recorder = &rec;
  return cfg;
}

std::string serve_fingerprint(const serve::ServeResult& r) {
  std::ostringstream os;
  os << "completed=" << r.stats.completed << " offered=" << r.stats.offered
     << " admitted=" << r.stats.admitted << " dropped=" << r.stats.dropped
     << " generated=" << r.generated << " migrations=" << r.total_migrations
     << " goodput=" << hexfloat(r.goodput_rps)
     << " mean=" << hexfloat(r.stats.latency.mean())
     << " p99=" << hexfloat(r.stats.latency.percentile(99));
  return hex64(fnv1a(os.str()));
}

TEST(PolicyGolden, ServeUle) {
  obs::RunRecorder rec;
  const serve::ServeResult r = serve::run_serve(serve_config(Policy::Ule, rec));
  EXPECT_EQ(serve_fingerprint(r), "7bd9a840da88de67");
  EXPECT_EQ(report_digest(rec), "a6878fef8c120ac0");
  EXPECT_GT(rec.spans().size(), 0u);
}

TEST(PolicyGolden, ServeShare) {
  obs::RunRecorder rec;
  const serve::ServeResult r =
      serve::run_serve(serve_config(Policy::Share, rec));
  EXPECT_EQ(serve_fingerprint(r), "697e3f05de204078");
  EXPECT_EQ(report_digest(rec), "94de15ddba4c435e");
  EXPECT_GT(rec.spans().size(), 0u);
  EXPECT_GT(rec.shares().size(), 0u);
}

TEST(PolicyGolden, ServeLeastLoaded) {
  // Least-loaded dispatch compares doubles (pending service demand), so its
  // ties and their lowest-index break are pinned separately from JSQ.
  obs::RunRecorder rec;
  serve::ServeConfig cfg = serve_config(Policy::Speed, rec);
  cfg.serve.dispatch = serve::DispatchPolicy::LeastLoaded;
  const serve::ServeResult r = serve::run_serve(cfg);
  EXPECT_EQ(serve_fingerprint(r), "6df0c096ad880e18");
  EXPECT_EQ(report_digest(rec), "913373e4d9187c5c");
  EXPECT_GT(rec.spans().size(), 0u);
}

TEST(PolicyGolden, ServeNumaHotplugOddWorkers) {
  // Twelve sleeping DWRR workers on barcelona's sixteen cores: idle cores
  // near and far from each wakee, so wake placement picks among its
  // nearest-first ranks (hundreds of wake moves); twelve least-loaded
  // shards pad the dispatch tree; core 5 goes away and comes back; and a
  // run-segment cap below the episode's segment count makes the export
  // overflow.
  obs::RunRecorder rec;
  serve::ServeConfig cfg = serve_config(Policy::Dwrr, rec);
  cfg.topo = presets::barcelona();
  cfg.cores = 16;
  cfg.serve.workers = 12;
  cfg.serve.span_sampling_log2 = 2;
  cfg.serve.dispatch = serve::DispatchPolicy::LeastLoaded;
  cfg.arrival.rate_rps =
      serve::rate_for_utilization(cfg.topo, 16, 0.5, 2000.0);
  cfg.duration = msec(2500);
  cfg.perturb = perturb::PerturbTimeline::parse_specs(
      "at=1s offline core=5; at=2s online core=5");
  rec.run_segments().set_cap(10000);
  const serve::ServeResult r = serve::run_serve(cfg);
  EXPECT_EQ(serve_fingerprint(r), "551215931b4a5bd9");
  EXPECT_EQ(report_digest(rec), "848d28f343573015");
  EXPECT_EQ(rec.run_segments().size(), 10000u);
  EXPECT_GT(rec.run_segments().dropped(), 0);
  EXPECT_GT(r.migrations_by_cause.at(MigrationCause::WakePlacement), 100);
  EXPECT_GE(r.migrations_by_cause.at(MigrationCause::Hotplug), 1);
}

/// Four SPEED nodes behind JSQ(2); node 0 drops to 1/10 clock at 200 ms
/// and the 100 ms rebalancer moves a pool off it.
cluster::ClusterConfig speed_cluster_config(obs::RunRecorder& rec) {
  cluster::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.pools_per_node = 1;
  cfg.topo = presets::generic(4);
  cfg.cores = 4;
  cfg.policy = Policy::Speed;
  cfg.serve.workers = 4;
  cfg.dispatch = cluster::ClusterDispatch::JsqD;
  cfg.jsq_d = 2;
  cfg.service.kind = workload::ServiceKind::Exp;
  cfg.service.mean_us = 5000.0;
  cfg.arrival.rate_rps =
      4.0 * serve::rate_for_utilization(cfg.topo, 4, 0.7, 5000.0);
  cfg.duration = msec(1500);
  cfg.warmup = msec(200);
  cfg.seed = 11;
  cfg.rebalance.epoch = msec(100);
  cfg.rebalance.threshold = 0.3;
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = msec(200);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.1;
    cfg.node_perturb[0].add(ev);
  }
  cfg.recorder = &rec;
  return cfg;
}

TEST(PolicyGolden, SpeedClusterWithRebalance) {
  obs::RunRecorder rec;
  const cluster::ClusterResult res =
      cluster::run_cluster(speed_cluster_config(rec));
  EXPECT_GE(res.pool_migrations, 1);
  EXPECT_GT(rec.rebalances().size(), 0u);
  EXPECT_EQ(report_digest(rec), "c08041fce189a03e");
}

// --- The run-segment cap: the first segments are kept, the rest counted ---

/// FNV-1a over every kept segment's fields in table order, then the
/// dropped count.
std::string segment_digest(const obs::RunSegmentTable& table) {
  std::ostringstream os;
  for (const obs::RunSegmentRecord& s : table.snapshot())
    os << s.start_us << ' ' << s.dur_us << ' ' << s.core << ' ' << s.task
       << ' ' << s.node << '\n';
  os << "dropped=" << table.dropped();
  return hex64(fnv1a(os.str()));
}

/// Kept segments per cluster node id, in node order.
std::vector<std::size_t> kept_per_node(const obs::RunSegmentTable& table,
                                       int nodes) {
  std::vector<std::size_t> out(static_cast<std::size_t>(nodes), 0);
  for (const obs::RunSegmentRecord& s : table.snapshot())
    ++out.at(static_cast<std::size_t>(s.node));
  return out;
}

TEST(SegmentCap, RecordedServeKeepsTheFirstSegments) {
  obs::RunRecorder rec;
  rec.run_segments().set_cap(1000);
  const serve::ServeResult r =
      serve::run_serve(serve_config(Policy::Speed, rec));
  EXPECT_EQ(serve_fingerprint(r), "7dbf8c71ea6df0bb");
  EXPECT_EQ(rec.run_segments().size(), 1000u);
  EXPECT_EQ(rec.run_segments().dropped(), 1462);
  EXPECT_EQ(segment_digest(rec.run_segments()), "1829e071ff7ffcde");
}

TEST(SegmentCap, RecordedClusterOverflowsPartWayThroughNode2) {
  // The nodes export in node order into one table: nodes 0 and 1 fit
  // whole, node 2 overflows part-way and node 3 finds no room.
  obs::RunRecorder rec;
  rec.run_segments().set_cap(2000);
  const cluster::ClusterResult res =
      cluster::run_cluster(speed_cluster_config(rec));
  EXPECT_GE(res.pool_migrations, 1);
  EXPECT_EQ(rec.run_segments().size(), 2000u);
  EXPECT_EQ(rec.run_segments().dropped(), 2163);
  EXPECT_EQ(kept_per_node(rec.run_segments(), 4),
            (std::vector<std::size_t>{134, 1197, 669, 0}));
  EXPECT_EQ(segment_digest(rec.run_segments()), "4081a73b1c9e7b6b");
}

// --- Report record sections read back through their field lists ---

/// The bytes of the array that follows the first `"key":` in `report`.
std::string array_text(const std::string& report, const std::string& key) {
  const std::size_t open = report.find("\"" + key + "\":[");
  if (open == std::string::npos) return "";
  const std::size_t begin = open + key.size() + 3;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = begin; i < report.size(); ++i) {
    const char c = report[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      ++depth;
    } else if (c == ']' && --depth == 0) {
      return report.substr(begin, i + 1 - begin);
    }
  }
  return "";
}

/// Read `array`, the report's `key` section, back into records and write
/// them again: the bytes must be the report's own. A non-empty section's
/// key goes into `seen`.
template <class R>
void expect_round_trip(const std::string& report, const std::string& key,
                       const JsonValue* array, std::set<std::string>& seen) {
  if (array == nullptr) return;
  if (array->size() > 0) seen.insert(key);
  std::ostringstream os;
  JsonWriter w(os);
  write_records(w, read_records<R>(array));
  EXPECT_EQ(os.str(), array_text(report, key)) << key;
}

/// Every record section of `rec`'s report round-trips through its list.
void expect_sections_round_trip(const obs::RunRecorder& rec,
                                std::set<std::string>& seen) {
  std::ostringstream os;
  rec.write_report_json(os);
  const std::string report = os.str();
  const JsonValue root = JsonValue::parse(report);
  expect_round_trip<obs::RequestSpan>(report, "requests",
                                      root.find("requests"), seen);
  expect_round_trip<obs::MigrationRecord>(report, "migrations",
                                          root.find("migrations"), seen);
  expect_round_trip<obs::RebalanceRecord>(report, "rebalances",
                                          root.find("rebalances"), seen);
  expect_round_trip<obs::ShareRecord>(report, "shares", root.find("shares"),
                                      seen);
  expect_round_trip<obs::TuningRecord>(report, "tuning", root.find("tuning"),
                                       seen);
  expect_round_trip<obs::SpeedSample>(report, "speed_timeline",
                                      root.find("speed_timeline"), seen);
  expect_round_trip<obs::DecisionRecord>(
      report, "records", &root.at("decisions").at("records"), seen);
}

TEST(ReportRoundTrip, RecordSectionsWriteTheSameBytesAgain) {
  // The recorded runs behind PolicyGolden.SpeedAdaptive, .ServeShare and
  // .SpeedClusterWithRebalance, and a SPEED serve run with every request
  // traced, fill all seven record sections between them.
  std::set<std::string> seen;
  {
    ExperimentConfig cfg = spmd_config(scenarios::Setup::SpeedYield);
    cfg.adaptive.enabled = true;
    obs::RunRecorder rec;
    run_spmd(cfg, rec);
    expect_sections_round_trip(rec, seen);
  }
  {
    obs::RunRecorder rec;
    serve::run_serve(serve_config(Policy::Share, rec));
    expect_sections_round_trip(rec, seen);
  }
  {
    obs::RunRecorder rec;
    cluster::run_cluster(speed_cluster_config(rec));
    expect_sections_round_trip(rec, seen);
  }
  {
    obs::RunRecorder rec;
    serve::run_serve(serve_config(Policy::Speed, rec));
    EXPECT_GT(rec.decisions().count(obs::PullReason::Pulled), 0);
    expect_sections_round_trip(rec, seen);
  }
  EXPECT_EQ(seen, (std::set<std::string>{"requests", "migrations",
                                         "rebalances", "shares", "tuning",
                                         "speed_timeline", "records"}));
}

}  // namespace
}  // namespace speedbal
