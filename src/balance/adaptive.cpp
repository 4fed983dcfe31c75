#include "balance/adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "obs/tuning_log.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace speedbal {

namespace {
/// Portfolio index of the arm anticipation jumps to.
constexpr int kAggressiveArm = 1;
/// Reward penalty per speed-balancer migration per sample (churn cost).
constexpr double kChurnPenalty = 0.02;
/// Reward penalty per queued-request-per-worker (serve stacks feed the
/// congestion probe; batch stacks leave it at zero input).
constexpr double kCongestionPenalty = 0.01;
/// Anticipation trip: when the dispersion forecast exceeds this level and
/// the smoothed slope is rising faster than kSlopeTrip per epoch, jump to
/// the aggressive arm before the stall finishes forming. The level sits
/// well above the measurement-noise floor (CV ~0.02-0.05) and well below
/// a DVFS-step signature (CV ~0.4 on four cores).
constexpr double kTripThreshold = 0.12;
constexpr double kSlopeTrip = 0.01;
/// Forecast horizon, in epochs, for the trip test.
constexpr double kLookaheadEpochs = 2.0;
/// Minimum epochs between anticipation jumps (on top of the dwell).
constexpr int kAnticipationCooldownEpochs = 8;
/// Congestion gate: when the congestion EWMA (queued requests per worker)
/// exceeds this, the controller retreats to — and parks on — the base
/// arm: no bootstrap exploration, no anticipation jump, no hold, no
/// greedy movement until the backlog drains. Experimenting with the
/// balance constants while requests are backed up trades tail latency
/// for nothing. Batch stacks never feed congestion, so the gate is
/// always open there.
constexpr double kCongestionGate = 0.5;
}  // namespace

std::vector<TuningArm> default_portfolio(const SpeedBalanceParams& base) {
  const auto arm = [&base](SimTime interval, double threshold, int block,
                           double cache_scale, const char* name) {
    TuningArm a;
    a.interval = interval;
    a.threshold = threshold;
    a.post_migration_block = block;
    a.shared_cache_block_scale = cache_scale;
    a.name = name;
    return a;
  };
  std::vector<TuningArm> arms;
  arms.push_back(arm(base.interval, base.threshold, base.post_migration_block,
                     base.shared_cache_block_scale, "paper"));
  // Shorter measurement windows are noisier, so the fast arm tightens T_s
  // while it quarters the interval and halves both cooldown knobs.
  arms.push_back(arm(std::max<SimTime>(base.interval / 4, msec(5)),
                     std::min(base.threshold, 0.8), 1, 0.5, "aggressive"));
  arms.push_back(arm(base.interval * 2, std::max(base.threshold, 0.95), 3,
                     base.shared_cache_block_scale, "conservative"));
  arms.push_back(arm(base.interval, base.threshold, base.post_migration_block,
                     0.5, "cache-eager"));
  return arms;
}

namespace adapt {

double sample_dispersion(const obs::SpeedSample& s) {
  double sum = 0.0;
  int n = 0;
  for (const double v : s.core_speed) {
    if (v <= 0.0) continue;  // Offline / unmeasured core: no signal.
    sum += v;
    ++n;
  }
  if (n < 2) return 0.0;
  const double mean = sum / n;
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (const double v : s.core_speed) {
    if (v <= 0.0) continue;
    var += (v - mean) * (v - mean);
  }
  var /= n;
  return std::sqrt(var) / mean;
}

void Predictor::observe(double x) {
  if (observed_ == 0) {
    level_ = x;
  } else {
    const double prev = level_;
    level_ = alpha * x + (1.0 - alpha) * level_;
    const double delta = level_ - prev;
    slope_ = observed_ == 1 ? delta
                            : slope_alpha * delta + (1.0 - slope_alpha) * slope_;
  }
  ++observed_;
}

}  // namespace adapt

AdaptiveSpeedBalancer::AdaptiveSpeedBalancer(AdaptiveParams params,
                                             std::vector<Task*> managed,
                                             std::vector<CoreId> cores)
    : params_(std::move(params)),
      portfolio_(default_portfolio(params_.speed)),
      samples_per_epoch_(params_.samples_per_epoch > 0
                             ? params_.samples_per_epoch
                             : std::max<int>(1, static_cast<int>(cores.size()))) {
  predictor_.alpha = params_.ewma_alpha;
  predictor_.slope_alpha = params_.slope_alpha;
  stats_.assign(portfolio_.size(), {});
  inner_ = std::make_unique<SpeedBalancer>(params_.speed, std::move(managed),
                                           std::move(cores));
}

void AdaptiveSpeedBalancer::attach(Simulator& sim) {
  sim_ = &sim;
  inner_->set_sample_observer(
      [this](const obs::SpeedSample& s) { observe_sample(s); });
  inner_->attach(sim);
}

void AdaptiveSpeedBalancer::observe_congestion(double queued_per_worker) {
  congestion_ewma_ = params_.ewma_alpha * queued_per_worker +
                     (1.0 - params_.ewma_alpha) * congestion_ewma_;
}

void AdaptiveSpeedBalancer::observe_sample(const obs::SpeedSample& s) {
  dispersion_sum_ += adapt::sample_dispersion(s);
  if (++samples_in_epoch_ >= samples_per_epoch_) close_epoch(s.ts_us);
}

void AdaptiveSpeedBalancer::switch_to(int arm) {
  current_arm_ = arm;
  last_change_epoch_ = epoch_;
  holding_ = false;  // Anticipation re-arms the hold right after its switch.
  ++changes_;
  const TuningArm& a = portfolio_[static_cast<std::size_t>(arm)];
  inner_->apply_tuning(a.interval, a.threshold, a.post_migration_block,
                       a.shared_cache_block_scale);
  SB_LOG(Debug) << "adaptive: epoch " << epoch_ << " -> arm " << arm << " ("
                << a.name << ")";
}

void AdaptiveSpeedBalancer::close_epoch(std::int64_t ts_us) {
  const double dispersion =
      dispersion_sum_ / static_cast<double>(samples_in_epoch_);
  dispersion_sum_ = 0.0;
  samples_in_epoch_ = 0;
  predictor_.observe(dispersion);

  // Churn: speed pulls per sample since the last epoch, from the
  // simulator's migration metrics (works in every stack, recorded or not).
  const std::int64_t pulls =
      sim_ != nullptr
          ? sim_->metrics().migration_count(MigrationCause::SpeedBalancer)
          : 0;
  const double churn = static_cast<double>(pulls - last_pulls_) /
                       static_cast<double>(samples_per_epoch_);
  last_pulls_ = pulls;

  const double reward = -predictor_.level() - kChurnPenalty * churn -
                        kCongestionPenalty * congestion_ewma_;
  ArmStats& incumbent = stats_[static_cast<std::size_t>(current_arm_)];
  ++incumbent.visits;
  incumbent.mean_reward +=
      (reward - incumbent.mean_reward) / static_cast<double>(incumbent.visits);

  ++epoch_;
  const int prev = current_arm_;
  const bool dwell_ok = epoch_ - last_change_epoch_ >= params_.min_dwell_epochs;
  const double predicted = predictor_.forecast(kLookaheadEpochs);
  obs::TuningOutcome outcome = obs::TuningOutcome::Kept;

  int unvisited = -1;
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    if (stats_[i].visits == 0) {
      unvisited = static_cast<int>(i);
      break;
    }
  }

  const bool congestion_ok = congestion_ewma_ <= kCongestionGate;
  const bool tripping = predictor_.primed() &&
                        predicted > kTripThreshold &&
                        predictor_.slope() > kSlopeTrip;
  // A disturbance forming while the controller already sits on the
  // aggressive arm (greedy put it there) arms the hold the same way an
  // anticipation switch would — the trip condition is what matters, not
  // which branch happened to select the arm first.
  if (tripping && congestion_ok && current_arm_ == kAggressiveArm)
    holding_ = true;

  if (holding_ && congestion_ok && current_arm_ == kAggressiveArm &&
      predicted > kTripThreshold) {
    // Hold: the disturbance that tripped anticipation is still in force.
    // The greedy comparison below must not run here — quiet-phase reward
    // history would pull the controller off the aggressive arm mid-ramp
    // (dispersion is arm-independent under DVFS, so only the costs of
    // fast rebalancing show up in the reward, never its benefit). The
    // holding_ flag scopes this to anticipation episodes: a *bootstrap*
    // visit to the aggressive arm must not stick just because the stack's
    // steady-state dispersion (e.g. oversubscribed serving, CV ~0.2) sits
    // above the trip level with no disturbance forming.
  } else if (!congestion_ok) {
    // Queue pressure: park on the base constants and stay there. Running —
    // or freezing — an experiment while requests are backed up turns
    // straight into tail latency, so bootstrap, anticipation, and greedy
    // movement all wait for the backlog to drain. Batch stacks never feed
    // congestion, so none of this fires there.
    if (current_arm_ != 0) {
      if (dwell_ok) {
        switch_to(0);
        outcome = obs::TuningOutcome::Switched;
      } else {
        outcome = obs::TuningOutcome::Dwell;
      }
    }
  } else if (unvisited >= 0) {
    // Bootstrap: give every arm one dwell's worth of epochs before the
    // bandit compares anything.
    if (dwell_ok) {
      switch_to(unvisited);
      outcome = obs::TuningOutcome::Bootstrap;
    }
  } else if (tripping && current_arm_ != kAggressiveArm &&
             epoch_ - last_anticipation_epoch_ >=
                 kAnticipationCooldownEpochs) {
    // Predictor trip: dispersion is high and still rising (a DVFS ramp or
    // hog onset forming) — shorten the interval before the stall, not
    // after. The slope condition is what keeps a merely-high steady state
    // from re-tripping this forever: under a constant perturbation the
    // smoothed slope decays to ~0 and the greedy path below takes over.
    if (dwell_ok) {
      switch_to(kAggressiveArm);
      holding_ = true;
      last_anticipation_epoch_ = epoch_;
      outcome = obs::TuningOutcome::Anticipated;
    } else {
      outcome = obs::TuningOutcome::Dwell;
    }
  } else {
    int best = current_arm_;
    for (std::size_t i = 0; i < stats_.size(); ++i)
      if (stats_[i].mean_reward >
          stats_[static_cast<std::size_t>(best)].mean_reward)
        best = static_cast<int>(i);
    if (best != current_arm_ &&
        stats_[static_cast<std::size_t>(best)].mean_reward >
            incumbent.mean_reward + params_.hysteresis) {
      if (dwell_ok) {
        switch_to(best);
        outcome = obs::TuningOutcome::Switched;
      } else {
        outcome = obs::TuningOutcome::Dwell;
      }
    } else if (current_arm_ != 0 &&
               stats_[0].mean_reward + params_.hysteresis >=
                   incumbent.mean_reward) {
      // Home drift: no arm is measurably better and the base arm is not
      // measurably worse — return to the paper constants. The default is
      // deliberate, not whatever arm bootstrap happened to end on.
      if (dwell_ok) {
        switch_to(0);
        outcome = obs::TuningOutcome::Switched;
      } else {
        outcome = obs::TuningOutcome::Dwell;
      }
    }
  }

  if (recorder_ != nullptr) {
    const TuningArm& a = portfolio_[static_cast<std::size_t>(current_arm_)];
    obs::TuningRecord rec;
    rec.ts_us = ts_us;
    rec.epoch = epoch_;
    rec.outcome = outcome;
    rec.arm = current_arm_;
    rec.prev_arm = prev;
    rec.interval_us = a.interval;
    rec.threshold = a.threshold;
    rec.post_migration_block = a.post_migration_block;
    rec.cache_block_scale = a.shared_cache_block_scale;
    rec.reward = reward;
    rec.dispersion = predictor_.level();
    rec.predicted = predicted;
    recorder_->tuning().add(rec);
  }
}

}  // namespace speedbal
