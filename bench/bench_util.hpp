#pragma once

// Shared plumbing for the figure/table reproduction harnesses. Every bench
// binary prints (a) the paper's reported shape for the experiment and (b)
// the regenerated rows/series, through the same Table formatter, so that
// EXPERIMENTS.md can quote either verbatim.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenarios.hpp"
#include "topo/presets.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace speedbal::bench {

/// Shared latency-percentile reporting: every bench that prints tail
/// latency uses the same columns, formatted from a LatencyHistogram (ns)
/// in milliseconds.
inline const std::vector<std::string> kLatencyCols = {"p50 ms", "p95 ms",
                                                      "p99 ms", "p99.9 ms"};

inline std::vector<std::string> latency_cells(const LatencyHistogram& h,
                                              int digits = 2) {
  std::vector<std::string> out;
  out.reserve(kLatencyCols.size());
  for (const double p : {50.0, 95.0, 99.0, 99.9})
    out.push_back(Table::num(h.percentile(p) / 1e6, digits));
  return out;
}

/// Cache of single-core baselines keyed by (machine, benchmark, threads):
/// several series in one figure share the same denominator.
class SerialBaselines {
 public:
  double get(const Topology& topo, const NpbProfile& prof, int nthreads,
             std::uint64_t seed = 42) {
    const std::string key =
        topo.name() + "/" + prof.full_name() + "/" + std::to_string(nthreads);
    auto it = cache_.find(key);
    if (it == cache_.end())
      it = cache_.emplace(key, scenarios::serial_runtime_s(topo, prof, nthreads, seed))
               .first;
    return it->second;
  }

 private:
  std::map<std::string, double> cache_;
};

inline void print_paper_note(std::string_view figure, std::string_view claim) {
  std::cout << "Reproduces " << figure << ".\nPaper's reported shape: " << claim
            << "\n";
}

/// Standard bench flags: --repeats, --seed, --quick (halves the sweep),
/// --jobs=N (replica parallelism; default hardware concurrency — results
/// are byte-identical for any value, so jobs is deliberately not part of
/// the JSON report), --report-json=FILE (machine-readable mirror of the
/// printed tables).
struct BenchArgs {
  int repeats = 5;
  std::uint64_t seed = 42;
  int jobs = 1;
  bool quick = false;
  std::string report_json;

  /// Exits with status 2 on a malformed number, naming the flag.
  static BenchArgs parse(int argc, char** argv) {
    const Cli cli(argc, argv);
    BenchArgs args;
    try {
      args.repeats = static_cast<int>(cli.get_int("repeats", args.repeats));
      args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
      args.jobs = resolve_jobs(static_cast<int>(cli.get_int("jobs", 0)));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      std::exit(2);
    }
    args.quick = cli.get_bool("quick", false);
    args.report_json = cli.get("report-json");
    return args;
  }
};

/// Mean over `repeats` replicas of a per-replica runtime, executed up to
/// `jobs`-way parallel. `body(rep)` must be independent across reps;
/// summation happens in replica order so the mean is bit-for-bit identical
/// for any `jobs`.
inline double mean_over_repeats(int jobs, int repeats,
                                const std::function<double(int)>& body) {
  std::vector<double> vals(static_cast<std::size_t>(repeats), 0.0);
  parallel_for(jobs, static_cast<std::size_t>(repeats),
               [&](std::size_t rep) { vals[rep] = body(static_cast<int>(rep)); });
  double sum = 0.0;
  for (const double v : vals) sum += v;
  return sum / static_cast<double>(repeats);
}

/// Mirrors a bench binary's printed tables into a flat JSON run report when
/// --report-json=FILE was passed. Usage: replace `table.print(std::cout)`
/// with `report.emit("series name", table)`; the file is written on
/// destruction:
///   {"bench": "...", "repeats": N, "seed": N,
///    "tables": {"series name": [{col: value, ...}, ...]}}
class BenchReport {
 public:
  BenchReport(std::string bench_name, BenchArgs args)
      : name_(std::move(bench_name)), args_(std::move(args)) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Print the table to stdout and record it for the JSON report.
  void emit(const std::string& title, const Table& table) {
    table.print(std::cout);
    if (!args_.report_json.empty()) tables_.emplace_back(title, table);
  }

  /// Flat name->value map written as a top-level "metrics" object; the
  /// regression gate (micro_hotpath --check-against) reads this back, so
  /// record every metric higher-is-better.
  void set_metrics(std::map<std::string, double> metrics) {
    metrics_ = std::move(metrics);
  }

  ~BenchReport() {
    if (args_.report_json.empty()) return;
    std::ofstream os(args_.report_json);
    if (!os) {
      std::cerr << name_ << ": cannot open report file '" << args_.report_json
                << "'\n";
      return;
    }
    JsonWriter w(os);
    w.begin_object();
    w.kv("bench", name_);
    w.kv("repeats", args_.repeats);
    w.kv("seed", static_cast<std::int64_t>(args_.seed));
    w.kv("quick", args_.quick);
    if (!metrics_.empty()) {
      w.key("metrics").begin_object();
      for (const auto& [key, value] : metrics_) w.kv(key, value);
      w.end_object();
    }
    w.key("tables").begin_object();
    for (const auto& [title, table] : tables_) {
      w.key(title);
      table.write_json(w);
    }
    w.end_object();
    w.end_object();
    os << "\n";
  }

 private:
  std::string name_;
  BenchArgs args_;
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, Table>> tables_;
};

}  // namespace speedbal::bench
