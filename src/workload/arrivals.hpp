#pragma once

#include <cstdint>
#include <string_view>

#include "util/enum_names.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace speedbal::workload {

/// Open-loop arrival processes for the request-serving subsystem. Each
/// process owns its Rng stream (forked nowhere, seeded explicitly), so a
/// serve run's arrival sequence depends only on the configured seed — never
/// on simulator event ordering — keeping runs byte-identical under --seed.
enum class ArrivalKind {
  Poisson,  ///< Homogeneous Poisson: exponential inter-arrival gaps.
  Bursty,   ///< Two-state MMPP: calm/burst phases with distinct rates.
  Diurnal,  ///< Sinusoidal rate ramp (diurnal load curve), via thinning.
};

inline constexpr auto kArrivalKindNames = enum_names<ArrivalKind>(
    "arrival process", "poisson", "bursty", "diurnal");
static_assert(kArrivalKindNames.ends_at(ArrivalKind::Diurnal));

inline const char* to_string(ArrivalKind k) { return kArrivalKindNames[k]; }
inline ArrivalKind parse_arrival_kind(std::string_view name) {
  return kArrivalKindNames.parse(name);
}

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::Poisson;
  double rate_rps = 1000.0;  ///< Long-run mean arrival rate (requests/s).
  // Bursty (MMPP-2): the burst state arrives `burst_factor` times faster
  // than the calm state; dwell times are exponential with the given means.
  // The two state rates are solved so the long-run mean stays `rate_rps`.
  double burst_factor = 4.0;
  SimTime burst_dwell_mean = msec(200);
  SimTime calm_dwell_mean = msec(800);
  // Diurnal: rate(t) = rate_rps * (1 + swing * sin(2*pi*t/period)).
  SimTime diurnal_period = sec(10);
  double diurnal_swing = 0.8;  ///< In [0, 1).
};

/// Stateful arrival-time generator: next(now) returns the absolute time of
/// the next arrival strictly after `now`.
class ArrivalProcess {
 public:
  ArrivalProcess(ArrivalSpec spec, std::uint64_t seed);

  SimTime next(SimTime now);
  const ArrivalSpec& spec() const { return spec_; }

 private:
  SimTime exp_gap(double rate_rps);

  ArrivalSpec spec_;
  Rng rng_;
  // Bursty state machine.
  bool in_burst_ = false;
  SimTime state_end_ = 0;
  double calm_rate_ = 0.0;
  double burst_rate_ = 0.0;
};

/// Service-demand distributions (microseconds of nominal-speed work per
/// request).
enum class ServiceKind {
  Fixed,      ///< Deterministic: every request costs mean_us.
  Exp,        ///< Exponential with the given mean.
  LogNormal,  ///< Log-normal with the given mean and coefficient of variation.
  Pareto,     ///< Bounded Pareto (heavy tail) with the given mean and shape.
};

inline constexpr auto kServiceKindNames = enum_names<ServiceKind>(
    "service distribution", "fixed", "exp", "lognormal", "pareto");
static_assert(kServiceKindNames.ends_at(ServiceKind::Pareto));

inline const char* to_string(ServiceKind k) { return kServiceKindNames[k]; }
inline ServiceKind parse_service_kind(std::string_view name) {
  return kServiceKindNames.parse(name);
}

struct ServiceSpec {
  ServiceKind kind = ServiceKind::Exp;
  double mean_us = 5000.0;
  double cv = 1.5;           ///< LogNormal: stddev / mean.
  double pareto_shape = 2.2; ///< Pareto tail index alpha (> 1).
};

class ServiceTimeDist {
 public:
  ServiceTimeDist(ServiceSpec spec, std::uint64_t seed);

  /// Next service demand in microseconds; always >= 1.
  double sample();
  const ServiceSpec& spec() const { return spec_; }

 private:
  ServiceSpec spec_;
  Rng rng_;
};

}  // namespace speedbal::workload
