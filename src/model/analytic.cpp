#include "model/analytic.hpp"

#include <algorithm>
#include <stdexcept>

namespace speedbal::model {

namespace {
void validate(const SpmdShape& shape) {
  if (shape.cores < 1 || shape.threads < shape.cores)
    throw std::invalid_argument("SpmdShape requires N >= M >= 1");
}
}  // namespace

int lemma1_steps(const SpmdShape& shape) {
  validate(shape);
  const int sq = shape.slow_queues();
  if (sq == 0) return 0;
  const int fq = shape.fast_queues();
  return 2 * ((sq + fq - 1) / fq);  // 2 * ceil(SQ / FQ).
}

double min_profitable_s(const SpmdShape& shape, double balance_interval) {
  validate(shape);
  if (shape.balanced()) return 0.0;
  const int t = shape.threads_per_fast_core();
  return static_cast<double>(lemma1_steps(shape)) * balance_interval /
         static_cast<double>(t + 1);
}

double linux_program_speed(const SpmdShape& shape) {
  validate(shape);
  const int t = shape.threads_per_fast_core();
  return 1.0 / static_cast<double>(t + (shape.balanced() ? 0 : 1));
}

double paper_midpoint_speed(const SpmdShape& shape) {
  validate(shape);
  const int t = shape.threads_per_fast_core();
  if (shape.balanced()) return 1.0 / static_cast<double>(t);
  return 0.5 * (1.0 / t + 1.0 / (t + 1));
}

double speed_balanced_speed(const SpmdShape& shape) {
  return std::min(paper_midpoint_speed(shape),
                  static_cast<double>(shape.cores) / shape.threads);
}

double ideal_improvement(const SpmdShape& shape) {
  return speed_balanced_speed(shape) / linux_program_speed(shape);
}

double phase_makespan_lower_bound(const SpmdShape& shape, double s) {
  validate(shape);
  return s * static_cast<double>(shape.threads) / shape.cores;
}

namespace {
void validate(const HeteroShape& shape) {
  if (shape.speeds.empty())
    throw std::invalid_argument("HeteroShape requires >= 1 core");
  for (const double s : shape.speeds)
    if (s <= 0.0)
      throw std::invalid_argument("HeteroShape speeds must be > 0");
}
}  // namespace

std::vector<double> optimal_shares(const HeteroShape& shape) {
  validate(shape);
  const double total = shape.total_speed();
  std::vector<double> shares;
  shares.reserve(shape.speeds.size());
  for (const double s : shape.speeds) shares.push_back(s / total);
  return shares;
}

double optimal_makespan(const HeteroShape& shape, double work) {
  validate(shape);
  return work / shape.total_speed();
}

double count_balanced_makespan(const HeteroShape& shape, double work) {
  validate(shape);
  return work / static_cast<double>(shape.cores()) / shape.min_speed();
}

double count_penalty(const HeteroShape& shape) {
  validate(shape);
  return shape.total_speed() /
         (static_cast<double>(shape.cores()) * shape.min_speed());
}

}  // namespace speedbal::model
