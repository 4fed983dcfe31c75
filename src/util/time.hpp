#pragma once

#include <cstdint>
#include <string>

namespace speedbal {

/// Simulation time in microseconds. Signed so that deltas and "not yet"
/// sentinels (-1) are representable without casts.
using SimTime = std::int64_t;

inline constexpr SimTime kUsec = 1;
inline constexpr SimTime kMsec = 1000 * kUsec;
inline constexpr SimTime kSec = 1000 * kMsec;

/// No-time-yet sentinel (used for "never happened" timestamps).
inline constexpr SimTime kNever = -1;

constexpr SimTime usec(std::int64_t n) { return n * kUsec; }
constexpr SimTime msec(std::int64_t n) { return n * kMsec; }
constexpr SimTime sec(std::int64_t n) { return n * kSec; }

constexpr double to_sec(SimTime t) { return static_cast<double>(t) / kSec; }
constexpr double to_msec(SimTime t) { return static_cast<double>(t) / kMsec; }

/// Rounding to integers without a libm call: baseline x86-64 has no
/// inline instruction for std::ceil or std::llround, so both go through the
/// PLT, and the event path rounds on every stop timer, CFS charge and
/// arrival gap. Both truncate (one inline conversion), then correct; the
/// truncation is exact, and so is x minus it. Exact wherever the libm
/// expression is defined, |x| < 2^63.

/// Equals static_cast<std::int64_t>(std::ceil(x)).
constexpr std::int64_t ceil_to_int64(double x) {
  const auto i = static_cast<std::int64_t>(x);
  return static_cast<double>(i) < x ? i + 1 : i;
}

/// Equals std::llround(x): nearest, halves away from zero.
constexpr std::int64_t round_to_int64(double x) {
  const auto i = static_cast<std::int64_t>(x);
  const double frac = x - static_cast<double>(i);
  return frac >= 0.5 ? i + 1 : frac <= -0.5 ? i - 1 : i;
}

/// Human-readable rendering, e.g. "12.5ms", "3.20s", "800us".
std::string format_time(SimTime t);

}  // namespace speedbal
