// Hot-path microbenchmarks tracking the simulator's perf trajectory:
//
//   1. Event-queue churn: schedule / 25% cancel+schedule / run against a
//      steady pending set (64, 1024, 16384 events) with a realistic 24-byte
//      event capture. Reports events/sec and ns/event.
//   2. End-to-end simulation throughput: full SPEED-YIELD NPB runs on the
//      tigerton preset, reporting simulator events/sec and wall-clock — ep.C
//      (no bandwidth demand) and the memory-bound cg.B, whose every dispatch
//      re-times all running cores.
//   3. Sweep wall-clock: run_experiment at --jobs=1 vs --jobs=N for the
//      same config (results are byte-identical; only wall-clock differs).
//   4. Telemetry overhead: the same serve episode untraced vs recorded at
//      1/64 span sampling, reporting requests/sec for both plus the
//      observability layer's self-measured share of the traced wall time.
//   5. Accounting churn: Metrics::record_exec, the one write the Simulator
//      makes per stretch of execution (exec-table add + segment append).
//   6. Far-future churn: one far-future schedule (1/8 cancelled) per pop
//      against a live near-time stream. A stress pattern for the heap's
//      far inserts; none of perfbench's workloads schedules this densely.
//
//   micro_hotpath [--quick] [--seed=42] [--jobs=N] [--report-json=FILE]
//                 [--check-against=FILE] [--check-tolerance=0.20]
//
// Every metric is recorded higher-is-better (events/sec, not ns) so the
// regression gate is one rule. --check-against loads a committed baseline
// (the "metrics" object of a previous --report-json) and exits non-zero if
// any metric regressed more than --check-tolerance (default 20%). Timings
// are min-of-3 passes to shave scheduler noise; expect several percent of
// run-to-run jitter anyway — the gate tolerance is deliberately generous.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "balance/linux_load.hpp"
#include "balance/speed.hpp"
#include "bench_util.hpp"
#include "obs/recorder.hpp"
#include "serve/scenarios.hpp"
#include "workload/generator.hpp"

namespace {

using namespace speedbal;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best (minimum) wall-clock over `passes` runs of `body`, which returns
/// the number of events it processed; result is events/sec.
template <typename Body>
double best_events_per_sec(int passes, Body&& body) {
  double best = 0.0;
  for (int p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    const std::uint64_t events = body();
    const double dt = seconds_since(t0);
    if (dt > 0) best = std::max(best, static_cast<double>(events) / dt);
  }
  return best;
}

/// Pattern 1: steady-state churn against `live` pending events. Every
/// iteration schedules one event at a pseudo-random future time, cancels
/// and re-schedules a quarter of them, and runs one event. The 24-byte
/// capture (pointer + two scalars) is the shape of a real wake-up or
/// balancer-tick event.
std::uint64_t churn(int live, std::uint64_t iters) {
  EventQueue q;
  std::uint64_t fired = 0;
  std::uint64_t* fp = &fired;
  for (int i = 0; i < live; ++i) q.schedule(i, [fp] { ++*fp; });
  std::uint64_t x = 12345;
  const std::uint64_t span = static_cast<std::uint64_t>(live) * 4;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const SimTime t =
        q.now() + 1 + static_cast<SimTime>((x >> 40) % span);
    auto h = q.schedule(t, [fp, t, i] { *fp += (t >= 0) + (i + 1 > 0); });
    if ((x & 3) == 0) {
      q.cancel(h);
      q.schedule(t, [fp, t, i] { *fp += (t >= 0) + (i + 1 > 0); });
    }
    q.run_next();
  }
  return iters;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speedbal;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const Cli cli(argc, argv);
  const std::string check_against = cli.get("check-against");
  const double tolerance = cli.get_double("check-tolerance", 0.20);
  // Min-of-3 even in --quick mode: single-pass numbers swing far more than
  // the gate tolerance on a busy host; shrinking the per-pass work is the
  // safe way to be fast.
  const int passes = 3;
  const std::uint64_t iters = args.quick ? 400000 : 1000000;

  bench::BenchReport report("micro_hotpath", args);
  std::map<std::string, double> metrics;

  // --- 1. Event-queue churn ------------------------------------------------
  {
    Table table({"pending events", "M events/s", "ns/event"});
    for (const int live : {64, 1024, 16384}) {
      const double eps =
          best_events_per_sec(passes, [&] { return churn(live, iters); });
      metrics["queue_churn_n" + std::to_string(live) + "_events_per_sec"] = eps;
      table.add_row({std::to_string(live), Table::num(eps / 1e6, 2),
                     Table::num(1e9 / eps, 1)});
    }
    report.emit("event-queue churn (schedule + 25% cancel + run, 24B capture)",
                table);
  }

  // --- 2. End-to-end simulation throughput --------------------------------
  {
    // Best-of-passes events/sec and its wall time for `threads` threads of
    // `bench` on the first `cores` tigerton cores under SPEED-YIELD.
    const auto end_to_end = [&](const char* bench, int threads, int cores) {
      const Topology topo = presets::tigerton();
      const auto prof = npb::by_name(bench);
      double best_eps = 0.0;
      double best_wall = 0.0;
      for (int p = 0; p < passes; ++p) {
        Simulator sim(topo, {}, args.seed);
        SpmdAppSpec spec = prof.to_spec(threads, {});
        SpmdApp app(sim, spec);
        LinuxLoadBalancer lb;
        lb.attach(sim);
        app.launch(SpmdApp::Placement::LinuxFork, workload::first_cores(cores));
        SpeedBalancer speed({}, app.threads(), workload::first_cores(cores));
        speed.attach(sim);
        const auto t0 = Clock::now();
        sim.run_while_pending([&] { return app.finished(); }, sec(3600));
        const double dt = seconds_since(t0);
        const double eps =
            dt > 0 ? static_cast<double>(sim.events_executed()) / dt : 0.0;
        if (eps > best_eps) {
          best_eps = eps;
          best_wall = dt;
        }
      }
      return std::make_pair(best_eps, best_wall);
    };
    Table table({"scenario", "M events/s", "wall s"});
    // ep has no bandwidth demand: dispatches never re-time other cores.
    const auto [ep_eps, ep_wall] = end_to_end("ep.C", 16, 8);
    metrics["sim_end_to_end_events_per_sec"] = ep_eps;
    table.add_row({"ep.C x16 on 8 cores, SPEED-YIELD",
                   Table::num(ep_eps / 1e6, 2), Table::num(ep_wall, 3)});
    // cg.B saturates the bus: every dispatch re-times every running core
    // (the speed-refresh path).
    const auto [cg_eps, cg_wall] = end_to_end("cg.B", 16, 12);
    metrics["sim_membound_events_per_sec"] = cg_eps;
    table.add_row({"cg.B x16 on 12 cores, SPEED-YIELD (memory-bound)",
                   Table::num(cg_eps / 1e6, 2), Table::num(cg_wall, 3)});
    report.emit("end-to-end simulation throughput", table);
  }

  // --- 3. Sweep wall-clock: --jobs=1 vs --jobs=N ---------------------------
  {
    auto cfg = scenarios::npb_config(presets::tigerton(), npb::by_name("ep.C"),
                                     16, 8, scenarios::Setup::SpeedYield,
                                     /*repeats=*/args.quick ? 4 : 8, args.seed);
    cfg.jobs = 1;
    auto t0 = Clock::now();
    const auto seq = run_experiment(cfg);
    const double wall_seq = seconds_since(t0);
    cfg.jobs = args.jobs;
    t0 = Clock::now();
    const auto par = run_experiment(cfg);
    const double wall_par = seconds_since(t0);
    // Determinism spot-check (full byte-level property lives in the test
    // suite): aggregates must match exactly.
    if (seq.mean_runtime() != par.mean_runtime() ||
        seq.mean_migrations() != par.mean_migrations()) {
      std::fprintf(stderr,
                   "micro_hotpath: --jobs=1 and --jobs=%d results diverged\n",
                   args.jobs);
      return 1;
    }
    metrics["sweep_runs_per_sec_jobs1"] =
        static_cast<double>(cfg.repeats) / wall_seq;
    metrics["sweep_runs_per_sec_jobsN"] =
        static_cast<double>(cfg.repeats) / wall_par;
    Table table({"jobs", "wall s", "runs/s", "speedup"});
    table.add_row({"1", Table::num(wall_seq, 3),
                   Table::num(cfg.repeats / wall_seq, 2), "1.00x"});
    table.add_row({std::to_string(args.jobs), Table::num(wall_par, 3),
                   Table::num(cfg.repeats / wall_par, 2),
                   Table::num(wall_seq / wall_par, 2) + "x"});
    report.emit("experiment sweep wall-clock (8 replicas, identical results)",
                table);
  }

  // --- 4. Telemetry overhead: untraced vs traced serve episode -------------
  {
    auto make_config = [&](obs::RunRecorder* rec) {
      serve::ServeConfig config;
      config.topo = presets::tigerton();
      config.cores = 8;
      config.policy = Policy::Speed;
      config.serve.workers = 16;
      config.serve.queue_capacity = 64;
      config.serve.dispatch = serve::DispatchPolicy::RoundRobin;
      config.serve.idle = serve::IdleMode::Yield;
      config.serve.span_sampling_log2 = 6;  // 1/64 of requests get spans.
      config.service.kind = workload::ServiceKind::Exp;
      config.service.mean_us = 5000.0;
      config.arrival.kind = workload::ArrivalKind::Poisson;
      config.arrival.rate_rps =
          serve::rate_for_utilization(config.topo, config.cores, 0.7,
                                      config.service.mean_us);
      config.duration = sec(args.quick ? 4 : 10);
      config.warmup = config.duration / 5;
      config.seed = args.seed;
      config.recorder = rec;
      return config;
    };
    // Same seed + same scenario: the recorded run replays the untraced one
    // event for event (the recorder consumes no randomness), so the wall
    // delta is pure observability cost.
    double bare_rps = 0.0;
    double traced_rps = 0.0;
    double self_pct = 0.0;
    std::int64_t spans = 0;
    std::int64_t completed = 0;
    for (int p = 0; p < passes; ++p) {
      auto t0 = Clock::now();
      const auto bare = serve::run_serve(make_config(nullptr));
      const double bare_dt = seconds_since(t0);
      obs::RunRecorder rec;
      t0 = Clock::now();
      const auto traced = serve::run_serve(make_config(&rec));
      const double traced_dt = seconds_since(t0);
      if (bare.stats.completed != traced.stats.completed) {
        std::fprintf(stderr,
                     "micro_hotpath: traced and untraced serve runs diverged\n");
        return 1;
      }
      completed = bare.stats.completed;
      const double n = static_cast<double>(completed);
      if (bare_dt > 0) bare_rps = std::max(bare_rps, n / bare_dt);
      if (traced_dt > 0 && n / traced_dt > traced_rps) {
        traced_rps = n / traced_dt;
        self_pct = rec.overhead().pct_of(traced_dt);
        spans = static_cast<std::int64_t>(rec.spans().size());
      }
    }
    metrics["serve_untraced_requests_per_sec"] = bare_rps;
    metrics["serve_traced_1in64_requests_per_sec"] = traced_rps;
    Table table({"tracing", "requests", "spans", "k req/s", "self-overhead %"});
    table.add_row({"off", std::to_string(completed), "0",
                   Table::num(bare_rps / 1e3, 1), "-"});
    table.add_row({"1/64 sampling", std::to_string(completed),
                   std::to_string(spans), Table::num(traced_rps / 1e3, 1),
                   Table::num(self_pct, 2)});
    report.emit("telemetry overhead (serve episode, identical results)", table);
  }

  // --- 5. Accounting churn: one record_exec per stretch --------------------
  {
    const std::uint64_t n = iters;
    const double rps = best_events_per_sec(passes, [&] {
      Metrics m(8);
      std::uint64_t x = 999;
      SimTime t = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const TaskId task = static_cast<TaskId>(x % 64);
        const CoreId core = static_cast<CoreId>((x >> 8) % 8);
        m.record_exec(task, core, t, 10);
        t += 10;
      }
      return n;
    });
    metrics["accounting_churn_records_per_sec"] = rps;
    Table table({"pattern", "M records/s", "ns/record"});
    table.add_row({"record_exec, 64 tasks x 8 cores",
                   Table::num(rps / 1e6, 2), Table::num(1e9 / rps, 1)});
    report.emit("accounting churn (one record_exec per stretch)", table);
  }

  // --- 6. Far-future churn: far inserts into the heap -----------------------
  {
    const std::uint64_t far_iters = iters / 2;
    const double eps = best_events_per_sec(passes, [&] {
      EventQueue q;
      std::uint64_t fired = 0;
      std::uint64_t* fp = &fired;
      std::uint64_t x = 777;
      for (std::uint64_t i = 0; i < far_iters; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        // Far-future: 70 ms to ~2 s ahead, so the pending set grows to
        // thousands of far entries beneath the near stream.
        const SimTime far =
            q.now() + 70'000 + static_cast<SimTime>((x >> 16) % 2'000'000);
        const auto h = q.schedule(far, [fp] { ++*fp; });
        if ((x & 7) == 0) q.cancel(h);
        // A near event keeps the clock marching.
        q.schedule(q.now() + 1 + static_cast<SimTime>(x % 64),
                   [fp] { ++*fp; });
        q.run_next();
      }
      q.run_all();
      return fired;
    });
    metrics["far_future_churn_events_per_sec"] = eps;
    Table table({"pattern", "M events/s", "ns/event"});
    table.add_row({"far-future schedule + 1/8 cancel + drain",
                   Table::num(eps / 1e6, 2), Table::num(1e9 / eps, 1)});
    report.emit("far-future churn (far inserts into the heap)", table);
  }

  // --- Metrics mirror + regression gate ------------------------------------
  report.set_metrics(metrics);
  {
    Table table({"metric", "value"});
    for (const auto& [name, value] : metrics)
      table.add_row({name, Table::num(value, 1)});
    report.emit("metrics (higher is better)", table);
  }

  if (!check_against.empty()) {
    std::ifstream is(check_against);
    if (!is) {
      std::fprintf(stderr, "micro_hotpath: cannot open baseline '%s'\n",
                   check_against.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << is.rdbuf();
    const auto doc = JsonValue::parse(buf.str());
    // Allow a bare metrics object.
    const JsonValue base = doc.find("metrics").value_or(doc);
    int failures = 0;
    for (const auto& [name, baseline] : base.members()) {
      const auto it = metrics.find(name);
      if (it == metrics.end()) continue;  // Metrics may be added over time.
      const double floor = baseline.as_number() * (1.0 - tolerance);
      const bool ok = it->second >= floor;
      std::printf("check %-40s baseline %12.0f current %12.0f  %s\n",
                  name.c_str(), baseline.as_number(), it->second,
                  ok ? "ok" : "REGRESSED");
      if (!ok) ++failures;
    }
    if (failures > 0) {
      std::fprintf(stderr,
                   "micro_hotpath: %d metric(s) regressed >%g%% vs %s\n",
                   failures, tolerance * 100, check_against.c_str());
      return 1;
    }
  }
  return 0;
}
