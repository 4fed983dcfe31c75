#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Which public counters one Simulator::step() advanced. A step may advance
/// several; a step that advanced none is an "other" step (CFS slices,
/// kernel-balancer ticks, barrier releases, wake-ups).
enum StepKind : unsigned {
  kPass = 1u,        ///< SpeedBalancer sample observer fired.
  kArrival = 2u,     ///< LoadGenerator::generated() grew.
  kCompletion = 4u,  ///< ServeRuntime::stats().completed grew.
};

/// In-memory span recorder for the traced legs. Parent spans (one per
/// workload unit, plus construct/run/epoch calls) are always kept; every
/// step feeds the aggregates below, and every kKeepEvery-th step is also
/// kept as a span for the exported Chrome trace (all of them would take
/// hundreds of MB). Nothing is written until write_chrome_trace() at exit.
class StepTrace {
 public:
  struct KindStat {
    std::int64_t steps = 0;
    std::int64_t ns = 0;
    double mean_ns() const {
      return steps > 0 ? static_cast<double>(ns) / static_cast<double>(steps)
                       : 0.0;
    }
  };

  StepTrace();

  /// Open a span named `name` under `parent` (-1 = root); returns its id.
  int begin(std::string name, int parent = -1);
  void end(int id);

  /// One step that ran between `start` and `stop`, tagged with StepKind bits.
  void step(Clock::time_point start, Clock::time_point stop, unsigned kinds,
            int parent);

  const speedbal::LatencyHistogram& steps() const { return all_; }
  const KindStat& pass() const { return pass_; }
  const KindStat& arrival() const { return arrival_; }
  const KindStat& completion() const { return completion_; }
  const KindStat& other() const { return other_; }

  /// Chrome trace-event JSON ("X" events, microseconds since the first span).
  bool write_chrome_trace(const std::string& path,
                          const std::vector<std::pair<std::string, std::string>>&
                              meta) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point stop;
    int parent = -1;
  };

  static constexpr std::uint64_t kKeepEvery = 256;

  std::uint64_t step_index_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  speedbal::LatencyHistogram all_;
  KindStat pass_, arrival_, completion_, other_;
};

/// Drive `sim` exactly as Simulator::run_while_pending(done, cap) would —
/// the loop run_experiment and (with done() == false) run_until use — and
/// record every step. run_while_pending calls its predicate between
/// consecutive steps, so each step is bracketed by two clock reads taken
/// inside the predicate; `classify()` returns the StepKind bits the step
/// just executed advanced. Returns what run_while_pending returns.
template <typename Classify, typename Done>
bool run_traced(speedbal::Simulator& sim, speedbal::SimTime cap,
                StepTrace& trace, int parent, Classify&& classify,
                Done&& done) {
  bool first = true;
  Clock::time_point start;
  return sim.run_while_pending(
      [&] {
        const Clock::time_point stop = Clock::now();
        if (!first) trace.step(start, stop, classify(), parent);
        first = false;
        const bool finished = done();
        start = Clock::now();
        return finished;
      },
      cap);
}

}  // namespace perfbench
