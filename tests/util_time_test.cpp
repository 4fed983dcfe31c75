#include "util/time.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace speedbal {
namespace {

static_assert(ceil_to_int64(1.5) == 2 && ceil_to_int64(-1.5) == -1);
static_assert(round_to_int64(2.5) == 3 && round_to_int64(-2.5) == -3);

/// Both helpers must equal the libm expressions they replace.
void expect_exact(double x) {
  EXPECT_EQ(ceil_to_int64(x), static_cast<std::int64_t>(std::ceil(x)))
      << "ceil of " << std::hexfloat << x;
  EXPECT_EQ(round_to_int64(x), std::llround(x))
      << "llround of " << std::hexfloat << x;
}

/// x and -x, each with its two nextafter neighbours.
void expect_exact_around(double x) {
  for (const double v : {x, -x}) {
    expect_exact(v);
    expect_exact(std::nextafter(v, -std::numeric_limits<double>::infinity()));
    expect_exact(std::nextafter(v, std::numeric_limits<double>::infinity()));
  }
}

TEST(Rounding, HalvesGoAwayFromZeroAndNeighboursOfIntegersStayPut) {
  for (int k = 0; k <= 64; ++k) expect_exact_around(k + 0.5);
  for (const double k : {0.0, 1.0, 2.0, 3.0, 1e6, 4503599627370495.0,
                         4503599627370496.0, 9007199254740992.0, 1e15, 1e18})
    expect_exact_around(k);
  // 0.5's lower neighbour is the classic floor(x + 0.5) trap.
  expect_exact(0.49999999999999994);
  expect_exact(-0.49999999999999994);
}

TEST(Rounding, ExactAtThePrecisionEdges) {
  const double two52 = 4503599627370496.0;  // Spacing 1 from here up.
  const double two53 = 9007199254740992.0;  // Spacing 2 from here up.
  for (const double x : {two52 - 0.5, two52 + 0.5, two52 - 1.5, two53,
                         two53 - 1.0, two53 + 2.0, 1e-12, 0.0, -0.0,
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min()})
    expect_exact_around(x);
  // The largest double below 2^63, where the int64 conversion is still
  // defined, and -2^63 itself.
  const double top = std::nextafter(9223372036854775808.0, 0.0);
  expect_exact(top);
  expect_exact(-top);
  expect_exact(-9223372036854775808.0);
}

TEST(Rounding, ExactOnRandomDoublesAcrossTwentyFourDecades) {
  Rng rng(20261017);
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform magnitude in [1e-9, 1e15], either sign.
    const double x = std::pow(10.0, rng.uniform(-9.0, 15.0));
    xs.push_back(rng.uniform() < 0.5 ? -x : x);
  }
  for (const double x : xs) expect_exact(x);
}

}  // namespace
}  // namespace speedbal
