// Arrival processes and service-time distributions for the serving
// subsystem: determinism under the seed, statistical sanity, and parsing.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "workload/arrivals.hpp"

namespace speedbal::workload {
namespace {

std::vector<SimTime> arrivals_until(ArrivalProcess& p, SimTime horizon) {
  std::vector<SimTime> ts;
  SimTime t = 0;
  while ((t = p.next(t)) < horizon) ts.push_back(t);
  return ts;
}

TEST(Arrivals, SameSeedSameSequenceEveryKind) {
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Bursty, ArrivalKind::Diurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_rps = 2000.0;
    ArrivalProcess a(spec, 99);
    ArrivalProcess b(spec, 99);
    EXPECT_EQ(arrivals_until(a, sec(2)), arrivals_until(b, sec(2)))
        << to_string(kind);
  }
}

TEST(Arrivals, DifferentSeedsDiverge) {
  ArrivalSpec spec;
  spec.rate_rps = 2000.0;
  ArrivalProcess a(spec, 1);
  ArrivalProcess b(spec, 2);
  EXPECT_NE(arrivals_until(a, sec(1)), arrivals_until(b, sec(1)));
}

TEST(Arrivals, TimesStrictlyIncreaseEveryKind) {
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Bursty, ArrivalKind::Diurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_rps = 5000.0;
    ArrivalProcess p(spec, 5);
    SimTime prev = 0;
    for (int i = 0; i < 5000; ++i) {
      const SimTime t = p.next(prev);
      ASSERT_GT(t, prev) << to_string(kind) << " at arrival " << i;
      prev = t;
    }
  }
}

TEST(Arrivals, LongRunMeanRateMatchesSpecEveryKind) {
  // Bursty and diurnal modulate the instantaneous rate but are solved to
  // keep the configured long-run mean; count arrivals over many cycles.
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Bursty, ArrivalKind::Diurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_rps = 1000.0;
    spec.diurnal_period = sec(2);
    ArrivalProcess p(spec, 11);
    const double horizon_s = 100.0;
    const auto n = arrivals_until(p, sec(100)).size();
    const double rate = static_cast<double>(n) / horizon_s;
    EXPECT_NEAR(rate, spec.rate_rps, 0.10 * spec.rate_rps) << to_string(kind);
  }
}

TEST(Arrivals, BurstyAlternatesFastAndSlowPhases) {
  // With a 4x burst factor, inter-arrival gaps inside bursts are much
  // shorter: the dispersion of gaps must exceed a plain Poisson stream's.
  ArrivalSpec poisson;
  poisson.rate_rps = 1000.0;
  ArrivalSpec bursty = poisson;
  bursty.kind = ArrivalKind::Bursty;
  bursty.burst_factor = 8.0;

  const auto cv2 = [](ArrivalSpec spec) {
    ArrivalProcess p(spec, 3);
    const auto ts = arrivals_until(p, sec(60));
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t i = 1; i < ts.size(); ++i) {
      const double gap = static_cast<double>(ts[i] - ts[i - 1]);
      sum += gap;
      sum2 += gap * gap;
    }
    const double n = static_cast<double>(ts.size() - 1);
    const double mean = sum / n;
    return (sum2 / n - mean * mean) / (mean * mean);
  };
  EXPECT_GT(cv2(bursty), 1.5 * cv2(poisson));
}

TEST(Service, SamplesDeterministicUnderSeedAndAtLeastOneMicrosecond) {
  for (const ServiceKind kind : {ServiceKind::Fixed, ServiceKind::Exp,
                                 ServiceKind::LogNormal, ServiceKind::Pareto}) {
    ServiceSpec spec;
    spec.kind = kind;
    spec.mean_us = 200.0;
    ServiceTimeDist a(spec, 21);
    ServiceTimeDist b(spec, 21);
    for (int i = 0; i < 2000; ++i) {
      const double v = a.sample();
      EXPECT_EQ(v, b.sample()) << to_string(kind);
      ASSERT_GE(v, 1.0) << to_string(kind);
    }
  }
}

TEST(Service, MeanTracksSpecEveryKind) {
  for (const ServiceKind kind : {ServiceKind::Fixed, ServiceKind::Exp,
                                 ServiceKind::LogNormal, ServiceKind::Pareto}) {
    ServiceSpec spec;
    spec.kind = kind;
    spec.mean_us = 5000.0;
    ServiceTimeDist d(spec, 13);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += d.sample();
    EXPECT_NEAR(sum / n, spec.mean_us, 0.10 * spec.mean_us) << to_string(kind);
  }
}

TEST(ArrivalsParse, ErrorsListValidNames) {
  EXPECT_EQ(parse_arrival_kind("poisson"), ArrivalKind::Poisson);
  EXPECT_EQ(parse_service_kind("pareto"), ServiceKind::Pareto);
  try {
    parse_arrival_kind("lunar");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* n : kArrivalKindNames.names)
      EXPECT_NE(msg.find(n), std::string::npos) << "missing " << n;
  }
  try {
    parse_service_kind("weibull");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* n : kServiceKindNames.names)
      EXPECT_NE(msg.find(n), std::string::npos) << "missing " << n;
  }
}

}  // namespace
}  // namespace speedbal::workload
