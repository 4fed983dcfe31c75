#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "balance/speed.hpp"

namespace speedbal {

/// One constant-set in the adaptive controller's portfolio: the Section-5
/// knobs the bandit selects between. Arm 0 is always the configured base
/// (the paper constants by default); the other arms vary the aggressiveness
/// of the same balancer rather than the algorithm.
struct TuningArm {
  SimTime interval = msec(100);
  double threshold = 0.9;
  int post_migration_block = 2;
  double shared_cache_block_scale = 1.0;
  std::string name;
};

/// The default four-arm portfolio derived from a base constant-set:
///   0 "paper"        — the base constants unchanged.
///   1 "aggressive"   — quarter interval, looser T_s, one-interval cooldown:
///                      reacts within a fraction of a base interval, at the
///                      price of more migrations.
///   2 "conservative" — double interval, tight T_s, three-interval cooldown:
///                      near-zero churn for steady phases.
///   3 "cache-eager"  — base pace, but cache-sharing pairs migrate twice as
///                      often (the paper's per-domain migration interval
///                      knob, Section 5.2).
std::vector<TuningArm> default_portfolio(const SpeedBalanceParams& base);

/// Tunables of the adaptive controller wrapped around the speed balancer.
struct AdaptiveParams {
  /// Master switch: the config structs carry AdaptiveParams everywhere, so
  /// the stacks decide between SpeedBalancer and the adaptive wrapper from
  /// this flag alone.
  bool enabled = false;
  /// Base constant-set: arm 0 of the portfolio, and the inner balancer's
  /// initial parameters (scenario lowering copies the fixed constants in).
  SpeedBalanceParams speed;
  /// Balance-pass samples per controller epoch; 0 = one per managed core,
  /// making one epoch track one balance interval regardless of machine size.
  int samples_per_epoch = 0;
  /// EWMA smoothing for the dispersion level and its slope (the predictor).
  double ewma_alpha = 0.3;
  double slope_alpha = 0.2;
  /// Minimum epochs between any two parameter changes (the stability dwell;
  /// the tuning-thrash invariant checks exactly this).
  int min_dwell_epochs = 4;
  /// A challenger arm must beat the incumbent's mean reward by this margin
  /// before the bandit switches (prevents noise-driven flapping; with the
  /// dwell gate this is what makes the trajectory converge under a constant
  /// perturbation).
  double hysteresis = 0.02;
};

namespace adapt {

/// Speed dispersion of one balance-pass sample: the coefficient of
/// variation over the cores present in it. Offline cores report speed 0
/// and are excluded; fewer than two present cores carry no imbalance
/// signal and yield 0. Pure — the property tests forge samples for it.
double sample_dispersion(const obs::SpeedSample& s);

/// Double-EWMA level + slope tracker over a scalar series (per-epoch
/// dispersion), with a linear forecast. Pure state machine — the property
/// tests drive it with forged streams, including gaps (a missed epoch is
/// simply never observed; EWMA state carries across).
struct Predictor {
  double alpha = 0.3;
  double slope_alpha = 0.2;

  void observe(double x);
  bool primed() const { return observed_ >= 2; }
  double level() const { return level_; }
  /// Smoothed per-observation change; 0 until two observations arrived.
  double slope() const { return observed_ >= 2 ? slope_ : 0.0; }
  double forecast(double horizon) const { return level() + slope() * horizon; }

 private:
  double level_ = 0.0;
  double slope_ = 0.0;
  int observed_ = 0;
};

}  // namespace adapt

/// ROADMAP item 3: the online controller over the speed balancer's
/// constants. Owns a SpeedBalancer and presents the same Balancer surface,
/// so every stack (spmd / serve / cluster / hetero) swaps it in unchanged.
///
/// Mechanism: every balance pass feeds its speed sample into the controller
/// (before the pass's pull decision); every `samples_per_epoch` samples
/// close a controller epoch. Per epoch the controller scores the incumbent
/// arm — reward = −(EWMA speed dispersion) − churn·(pulls per sample) −
/// congestion·(queued per worker) — and runs a bandit over the portfolio:
/// bootstrap round-robin until every arm has been tried, then greedy with
/// hysteresis. A double-EWMA predictor over the dispersion series forecasts
/// the next epochs; a rising forecast above the trip threshold jumps
/// straight to the aggressive arm (shortening the interval *before* the
/// stall), rate-limited by its own cooldown and gated on low congestion —
/// under queue pressure the controller instead retreats to the base arm
/// and parks there until the backlog drains.
/// While the forecast stays above the trip level the controller *holds*
/// the aggressive arm (only when anticipation put it there — a bootstrap
/// visit never sticks) rather than letting the bandit pull it back: under a
/// sustained DVFS/hog disturbance the per-core dispersion is the same for
/// every arm (no constant-set changes a throttled core's clock), so reward
/// history cannot see what faster rebalancing buys the application, and
/// the high-dispersion prior has to carry the decision. Symmetrically,
/// when no arm beats the incumbent by the hysteresis margin the bandit
/// drifts home to arm 0 — the paper constants are the deliberate default,
/// not an accident of bootstrap order. Every change is dwell-gated,
/// which is what the tuning-thrash invariant verifies. Every epoch logs a
/// TuningRecord (`obsquery --tuning`).
///
/// The controller draws no randomness and runs identically with and
/// without a recorder, preserving the sampling-identity oracle.
class AdaptiveSpeedBalancer : public Balancer {
 public:
  AdaptiveSpeedBalancer(AdaptiveParams params, std::vector<Task*> managed,
                        std::vector<CoreId> cores);

  void attach(Simulator& sim) override;
  std::string name() const override { return "adaptive-speed"; }

  void add_managed(Task& t) { inner_->add_managed(t); }
  void set_recorder(obs::RunRecorder* rec) {
    recorder_ = rec;
    inner_->set_recorder(rec);
  }

  /// Serve stacks feed queue pressure (queued requests per worker) here at
  /// balance-interval granularity; it decays into the congestion term of
  /// the reward. Batch stacks never call it.
  void observe_congestion(double queued_per_worker);

  /// The wrapped balancer (tests drive balance_once through it).
  SpeedBalancer& inner() { return *inner_; }

  /// Controller state, exposed for tests and benches.
  const std::vector<TuningArm>& portfolio() const { return portfolio_; }
  int current_arm() const { return current_arm_; }
  std::int64_t epochs() const { return epoch_; }
  std::int64_t parameter_changes() const { return changes_; }

  /// Test hook: feed one sample directly (the attach path installs this
  /// very function as the inner balancer's sample observer).
  void observe_sample(const obs::SpeedSample& s);

 private:
  struct ArmStats {
    std::int64_t visits = 0;  // Epochs this arm was the incumbent.
    double mean_reward = 0.0;
  };

  void close_epoch(std::int64_t ts_us);
  void switch_to(int arm);

  AdaptiveParams params_;
  std::vector<TuningArm> portfolio_;
  std::unique_ptr<SpeedBalancer> inner_;
  Simulator* sim_ = nullptr;
  obs::RunRecorder* recorder_ = nullptr;

  int samples_per_epoch_ = 1;
  int samples_in_epoch_ = 0;
  double dispersion_sum_ = 0.0;
  adapt::Predictor predictor_;
  double congestion_ewma_ = 0.0;
  std::int64_t last_pulls_ = 0;

  std::vector<ArmStats> stats_;
  /// True only while an anticipation episode is in force: set when the trip
  /// condition fires (by the anticipation switch, or in place if greedy
  /// already selected the aggressive arm), cleared by any other parameter
  /// change. Scopes the aggressive-arm hold to disturbances the predictor
  /// actually tripped on.
  bool holding_ = false;
  int current_arm_ = 0;
  std::int64_t epoch_ = 0;
  std::int64_t last_change_epoch_ = 0;
  std::int64_t last_anticipation_epoch_ = 0;
  std::int64_t changes_ = 0;
};

}  // namespace speedbal
