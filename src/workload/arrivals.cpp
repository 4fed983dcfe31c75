#include "workload/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace speedbal::workload {

namespace {

/// Exponential variate with the given mean; uniform() is in [0, 1) so the
/// log argument is in (0, 1].
double exp_variate(Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.uniform());
}

}  // namespace

ArrivalProcess::ArrivalProcess(ArrivalSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  if (spec_.rate_rps <= 0.0)
    throw std::invalid_argument("ArrivalProcess: rate_rps must be > 0");
  if (spec_.kind == ArrivalKind::Bursty) {
    if (spec_.burst_factor <= 1.0)
      throw std::invalid_argument("ArrivalProcess: burst_factor must be > 1");
    // Solve the calm rate so the dwell-weighted mean equals rate_rps:
    //   (rc*calm + rc*f*burst) / (calm + burst) = rate.
    const double calm = to_sec(spec_.calm_dwell_mean);
    const double burst = to_sec(spec_.burst_dwell_mean);
    calm_rate_ = spec_.rate_rps * (calm + burst) /
                 (calm + spec_.burst_factor * burst);
    burst_rate_ = calm_rate_ * spec_.burst_factor;
  }
  if (spec_.kind == ArrivalKind::Diurnal &&
      (spec_.diurnal_swing < 0.0 || spec_.diurnal_swing >= 1.0))
    throw std::invalid_argument("ArrivalProcess: diurnal_swing must be in [0,1)");
}

SimTime ArrivalProcess::exp_gap(double rate_rps) {
  const double gap_us = exp_variate(rng_, 1e6 / rate_rps);
  return std::max<SimTime>(1, round_to_int64(gap_us));
}

SimTime ArrivalProcess::next(SimTime now) {
  switch (spec_.kind) {
    case ArrivalKind::Poisson:
      return now + exp_gap(spec_.rate_rps);
    case ArrivalKind::Bursty: {
      // Advance the modulating chain to `now`, then draw a gap at the
      // current state's rate. State switches are resolved at draw points
      // (gaps are short relative to dwell times), which keeps the process a
      // single self-contained stream.
      while (now >= state_end_) {
        in_burst_ = !in_burst_;
        const SimTime dwell_mean =
            in_burst_ ? spec_.burst_dwell_mean : spec_.calm_dwell_mean;
        const double dwell_us =
            exp_variate(rng_, static_cast<double>(dwell_mean));
        state_end_ += std::max<SimTime>(1, round_to_int64(dwell_us));
      }
      return now + exp_gap(in_burst_ ? burst_rate_ : calm_rate_);
    }
    case ArrivalKind::Diurnal: {
      // Non-homogeneous Poisson by thinning against the peak rate.
      const double peak = spec_.rate_rps * (1.0 + spec_.diurnal_swing);
      SimTime t = now;
      for (;;) {
        t += exp_gap(peak);
        const double phase = 2.0 * std::numbers::pi * static_cast<double>(t) /
                             static_cast<double>(spec_.diurnal_period);
        const double rate =
            spec_.rate_rps * (1.0 + spec_.diurnal_swing * std::sin(phase));
        if (rng_.uniform() * peak < rate) return t;
      }
    }
  }
  return now + 1;
}

ServiceTimeDist::ServiceTimeDist(ServiceSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  if (spec_.mean_us <= 0.0)
    throw std::invalid_argument("ServiceTimeDist: mean_us must be > 0");
  if (spec_.kind == ServiceKind::Pareto && spec_.pareto_shape <= 1.0)
    throw std::invalid_argument("ServiceTimeDist: pareto_shape must be > 1");
  if (spec_.kind == ServiceKind::LogNormal && spec_.cv <= 0.0)
    throw std::invalid_argument("ServiceTimeDist: cv must be > 0");
}

double ServiceTimeDist::sample() {
  double v = spec_.mean_us;
  switch (spec_.kind) {
    case ServiceKind::Fixed:
      break;
    case ServiceKind::Exp:
      v = exp_variate(rng_, spec_.mean_us);
      break;
    case ServiceKind::LogNormal: {
      // mean = exp(mu + sigma^2/2); cv^2 = exp(sigma^2) - 1.
      const double sigma2 = std::log(1.0 + spec_.cv * spec_.cv);
      const double mu = std::log(spec_.mean_us) - sigma2 / 2.0;
      v = std::exp(rng_.normal(mu, std::sqrt(sigma2)));
      break;
    }
    case ServiceKind::Pareto: {
      // Pareto(alpha, xm) with mean = alpha*xm/(alpha-1).
      const double alpha = spec_.pareto_shape;
      const double xm = spec_.mean_us * (alpha - 1.0) / alpha;
      v = xm / std::pow(1.0 - rng_.uniform(), 1.0 / alpha);
      break;
    }
  }
  return std::max(v, 1.0);
}

}  // namespace speedbal::workload
