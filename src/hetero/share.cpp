#include "hetero/share.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/log.hpp"

namespace speedbal::hetero {

ShareBalancer::ShareBalancer(ShareParams params, std::vector<CoreId> cores)
    : params_(params), cores_(std::move(cores)) {
  if (cores_.empty()) throw std::invalid_argument("ShareBalancer: no cores");
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const auto c = static_cast<std::size_t>(cores_[i]);
    if (c >= core_index_.size()) core_index_.resize(c + 1, -1);
    core_index_[c] = static_cast<int>(i);
  }
  shares_.assign(cores_.size(), 1.0 / static_cast<double>(cores_.size()));
}

void ShareBalancer::set_managed(std::vector<Task*> threads) {
  if (sim_ != nullptr) throw std::logic_error("set_managed after attach");
  managed_ = std::move(threads);
}

void ShareBalancer::attach(Simulator& sim) {
  sim_ = &sim;
  rng_ = sim.rng().fork();
  // Round-robin hard pin, mirroring thread_share's thread->core mapping:
  // the partition only makes sense when thread i actually runs on
  // cores_[i % ncores]. SHARE never migrates afterwards — work moves,
  // threads do not.
  pin_round_robin(sim, managed_, cores_, 0, MigrationCause::Affinity);
  exec_snap_.assign(managed_.size(), 0);
  snapshot_time_ = sim.now();
  if (params_.automatic)
    sim.schedule_after(params_.interval, [this] { epoch_wake(); });
}

int ShareBalancer::threads_on(int core_index, int nthreads) const {
  const int nc = static_cast<int>(cores_.size());
  return nthreads / nc + (core_index < nthreads % nc ? 1 : 0);
}

double ShareBalancer::thread_share(int thread_index, int nthreads) {
  if (nthreads <= 0) return 1.0;
  const int nc = static_cast<int>(cores_.size());
  const int ci = thread_index % nc;
  const int on_core = threads_on(ci, nthreads);
  if (on_core <= 0) return 0.0;
  // Renormalize over occupied cores: with fewer threads than cores some
  // shares have no thread to carry them, and the occupied ones must still
  // sum to 1 (conservation of phase work).
  double occupied = 0.0;
  for (int c = 0; c < nc; ++c)
    if (threads_on(c, nthreads) > 0) occupied += shares_[static_cast<std::size_t>(c)];
  if (occupied <= 0.0) return 1.0 / static_cast<double>(nthreads);
  return shares_[static_cast<std::size_t>(ci)] /
         (static_cast<double>(on_core) * occupied);
}

std::vector<double> ShareBalancer::measure_speeds() {
  sim_->sync_all_accounting();
  const SimTime elapsed = std::max<SimTime>(sim_->now() - snapshot_time_, 1);
  // Per-core throughput: summed exec-time deltas over the epoch, weighted
  // by the core's clock so the number means "work completed per unit time",
  // not "CPU time occupied" (a throttled core is busy but slow).
  std::vector<double> exec_sum(cores_.size(), 0.0);
  std::vector<int> live_on(cores_.size(), 0);
  for (std::size_t k = 0; k < managed_.size(); ++k) {
    const Task* t = managed_[k];
    const SimTime exec = t->total_exec();
    const SimTime delta = exec - exec_snap_[k];
    exec_snap_[k] = exec;
    if (t->state() == TaskState::Finished) continue;
    const auto c = static_cast<std::size_t>(t->core());
    if (c >= core_index_.size() || core_index_[c] < 0) continue;
    const auto i = static_cast<std::size_t>(core_index_[c]);
    exec_sum[i] += static_cast<double>(delta);
    ++live_on[i];
  }
  snapshot_time_ = sim_->now();

  std::vector<double> speeds(cores_.size(), 0.0);
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const double clock = sim_->topo().core(cores_[i]).clock_scale;
    double s;
    if (live_on[i] == 0 || exec_sum[i] <= 0.0) {
      // No signal this epoch (empty core, or threads parked at a barrier):
      // assume nominal speed rather than zero, so the share does not
      // collapse on a measurement gap.
      s = clock;
    } else {
      s = exec_sum[i] / static_cast<double>(elapsed) * clock;
    }
    if (params_.measurement_noise > 0.0)
      s *= 1.0 + rng_.normal(0.0, params_.measurement_noise);
    speeds[i] = std::max(s, 1e-9);
  }
  return speeds;
}

std::vector<double> ShareBalancer::target_shares(
    const std::vector<double>& speeds, int& floor_clamped) const {
  const std::size_t nc = cores_.size();
  std::vector<double> target(nc, 1.0 / static_cast<double>(nc));
  floor_clamped = 0;
  if (params_.source == ShareParams::Source::Count) return target;

  double total = 0.0;
  for (double s : speeds) total += s;
  if (total <= 0.0) return target;
  for (std::size_t i = 0; i < nc; ++i) target[i] = speeds[i] / total;

  // Min-share floor if it is satisfiable at all: clamp deficient cores to
  // the floor and renormalize the rest into the remainder, repeating until
  // no free core falls below (water-filling; terminates in <= nc rounds).
  const double floor = params_.min_share;
  if (floor <= 0.0 || floor * static_cast<double>(nc) >= 1.0) return target;
  std::vector<bool> clamped(nc, false);
  bool changed = true;
  while (changed) {
    changed = false;
    double free_speed = 0.0;
    int nclamped = 0;
    for (std::size_t i = 0; i < nc; ++i) {
      if (clamped[i]) ++nclamped;
      else free_speed += speeds[i];
    }
    const double avail = 1.0 - static_cast<double>(nclamped) * floor;
    for (std::size_t i = 0; i < nc; ++i) {
      if (clamped[i]) {
        target[i] = floor;
        continue;
      }
      target[i] = free_speed > 0.0 ? speeds[i] / free_speed * avail
                                   : avail / static_cast<double>(nc - nclamped);
      if (target[i] < floor) {
        clamped[i] = true;
        changed = true;
      }
    }
  }
  for (std::size_t i = 0; i < nc; ++i)
    if (clamped[i]) ++floor_clamped;
  return target;
}

void ShareBalancer::epoch_once() {
  if (sim_ == nullptr) throw std::logic_error("epoch_once before attach");
  const std::vector<double> speeds = measure_speeds();
  if (ewma_.empty()) {
    ewma_ = speeds;
  } else {
    for (std::size_t i = 0; i < ewma_.size(); ++i)
      ewma_[i] = params_.ewma_alpha * speeds[i] +
                 (1.0 - params_.ewma_alpha) * ewma_[i];
  }

  int floor_clamped = 0;
  const std::vector<double> target = target_shares(ewma_, floor_clamped);
  double max_delta = 0.0;
  for (std::size_t i = 0; i < target.size(); ++i)
    max_delta = std::max(max_delta, std::abs(target[i] - shares_[i]));

  obs::ShareOutcome outcome;
  if (epoch_ == 0) {
    outcome = obs::ShareOutcome::Bootstrap;
  } else if (max_delta < params_.hysteresis) {
    outcome = obs::ShareOutcome::BelowHysteresis;
  } else {
    outcome = obs::ShareOutcome::Repartitioned;
  }
  const bool adopt = outcome != obs::ShareOutcome::BelowHysteresis;
  if (adopt) {
    shares_ = target;
    SB_LOG(Debug) << "share: epoch " << epoch_ << " repartitioned, max_delta="
                  << max_delta;
  }

  if (recorder_ != nullptr) {
    obs::ShareRecord rec;
    rec.ts_us = sim_->now();
    rec.epoch = epoch_;
    rec.outcome = outcome;
    rec.max_delta = max_delta;
    rec.hysteresis = params_.hysteresis;
    rec.floor_clamped = floor_clamped;
    rec.shares = shares_;
    rec.speeds = ewma_;
    recorder_->shares().add(rec);
  }
  if (adopt && sink_) sink_(shares_);
  ++epoch_;
}

void ShareBalancer::epoch_wake() {
  epoch_once();
  sim_->schedule_after(params_.interval, [this] { epoch_wake(); });
}

}  // namespace speedbal::hetero
