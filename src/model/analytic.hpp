#pragma once

#include <vector>

#include "util/time.hpp"

namespace speedbal::model {

/// The analytic model of Section 4 of the paper: N threads of an SPMD
/// application on M homogeneous cores, N >= M, with barriers every S
/// seconds of per-thread computation and balancing every B seconds.
///
/// T = floor(N/M) threads on each "fast" core; the N mod M "slow" cores run
/// T+1 threads. Queue-length balancing leaves the distribution static, so
/// the program runs at the speed of the slowest thread, 1/(T+1). Speed
/// balancing rotates threads so each spends equal time on fast and slow
/// cores; the paper puts the asymptotic average speed at the midpoint
/// (1/T + 1/(T+1)) / 2, but no schedule can beat the work-conserving
/// ceiling M/N, so the model caps it there.
struct SpmdShape {
  int threads = 0;  ///< N.
  int cores = 0;    ///< M.

  int threads_per_fast_core() const { return threads / cores; }          // T
  int slow_queues() const { return threads % cores; }                    // SQ
  int fast_queues() const { return cores - slow_queues(); }              // FQ
  bool balanced() const { return slow_queues() == 0; }
};

/// Lemma 1: number of balancing steps needed so that every thread has run
/// at least once on a fast core: 2 * ceil(SQ / FQ) (0 when balanced).
int lemma1_steps(const SpmdShape& shape);

/// Minimum inter-barrier computation time S for speed balancing to beat
/// queue-length balancing with balance interval B (Figure 1):
///   (T+1) * S > lemma1_steps * B   =>   S_min = steps * B / (T+1).
/// Returns 0 for balanced shapes (nothing to gain either way).
double min_profitable_s(const SpmdShape& shape, double balance_interval);

/// Average thread speed under static queue-length balancing: the program
/// advances at the slowest thread's speed, 1 / (T+1).
double linux_program_speed(const SpmdShape& shape);

/// The paper's asymptotic average thread speed under speed balancing,
/// (1/T + 1/(T+1)) / 2: the midpoint of the fast and slow core speeds. It
/// exceeds the capacity bound M/N whenever SQ/M > T/(2T+1) (3 threads on 2
/// cores: 3/4 against 2/3), so it is not always reachable.
double paper_midpoint_speed(const SpmdShape& shape);

/// Asymptotic average thread speed under ideal speed balancing:
/// min(paper_midpoint_speed, M/N). Time-averaged, a thread spends FQ*T/N
/// of its time on fast cores, which gives exactly M/N.
double speed_balanced_speed(const SpmdShape& shape);

/// Ideal speedup of speed balancing over queue-length balancing:
/// speed_balanced_speed / linux_program_speed. The paper's headline
/// 1 + 1/(2T) is the uncapped midpoint's ratio.
double ideal_improvement(const SpmdShape& shape);

/// Upper bound on the makespan of one phase: work S per thread, perfectly
/// rotated over M cores cannot beat N*S/M.
double phase_makespan_lower_bound(const SpmdShape& shape, double s);

/// The heterogeneous extension (Sections 1/4/7 of the paper argue speed
/// balancing is strongest on asymmetric machines): M cores with relative
/// speeds s_i > 0 executing one barrier phase of total work W (one work
/// unit takes 1/s_i seconds on core i, each core runs one partition).
struct HeteroShape {
  std::vector<double> speeds;  ///< Per-core relative speed (clock scale).

  int cores() const { return static_cast<int>(speeds.size()); }
  double total_speed() const {
    double s = 0.0;
    for (const double v : speeds) s += v;
    return s;
  }
  double min_speed() const {
    double m = speeds.empty() ? 0.0 : speeds[0];
    for (const double v : speeds) m = v < m ? v : m;
    return m;
  }
};

/// Speed-proportional work shares w_i = s_i / sum(s): the unique partition
/// that makes every core finish the phase simultaneously. Shares sum to 1.
std::vector<double> optimal_shares(const HeteroShape& shape);

/// Makespan of one phase of total work W under the optimal (speed-
/// proportional) partition: W / sum(s_i) — every core finishes together.
double optimal_makespan(const HeteroShape& shape, double work);

/// Makespan under uniform (count-balanced) shares w_i = 1/M: the phase ends
/// when the slowest core finishes its equal slice, (W/M) / min(s_i). This is
/// what queue-length balancing converges to on an asymmetric machine — equal
/// queues, maximally wrong partition.
double count_balanced_makespan(const HeteroShape& shape, double work);

/// The paper's "load balancing is maximally wrong here" ratio:
/// count_balanced / optimal = sum(s_i) / (M * min(s_i)). 1.0 when the
/// machine is homogeneous; grows linearly with the big/LITTLE speed ratio
/// (4 big + 4 little at ratio r: (4r+4)/(8*1) = (r+1)/2).
double count_penalty(const HeteroShape& shape);

}  // namespace speedbal::model
