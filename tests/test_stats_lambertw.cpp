#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats/lambert_w.h"

namespace locpriv::stats {
namespace {

constexpr double kInvE = 0.36787944117144233;

TEST(LambertW0, KnownValues) {
  EXPECT_DOUBLE_EQ(lambert_w0(0.0), 0.0);
  EXPECT_NEAR(lambert_w0(std::exp(1.0)), 1.0, 1e-12);          // W(e) = 1
  EXPECT_NEAR(lambert_w0(2.0 * std::exp(2.0)), 2.0, 1e-12);    // W(2e^2) = 2
  EXPECT_NEAR(lambert_w0(-kInvE), -1.0, 1e-6);                 // branch point
}

TEST(LambertW0, DefiningIdentityHoldsAcrossDomain) {
  for (const double x : {-0.35, -0.2, -0.05, 0.01, 0.5, 1.0, 5.0, 100.0, 1e6}) {
    const double w = lambert_w0(x);
    EXPECT_NEAR(w * std::exp(w), x, 1e-9 * std::max(1.0, std::abs(x))) << "x = " << x;
  }
}

TEST(LambertW0, PrincipalBranchRange) {
  for (const double x : {-0.3, -0.1, 0.5, 10.0}) {
    EXPECT_GE(lambert_w0(x), -1.0 - 1e-12) << "x = " << x;
  }
}

TEST(LambertW0, ThrowsOutsideDomain) {
  EXPECT_THROW((void)lambert_w0(-0.4), std::domain_error);
  EXPECT_THROW((void)lambert_w0(std::nan("")), std::domain_error);
}

TEST(LambertWm1, KnownValues) {
  // W_{-1}(-1/e) = -1.
  EXPECT_NEAR(lambert_wm1(-kInvE), -1.0, 1e-6);
  // W_{-1}(-2 e^{-2}) = -2.
  EXPECT_NEAR(lambert_wm1(-2.0 * std::exp(-2.0)), -2.0, 1e-10);
  // W_{-1}(-5 e^{-5}) = -5.
  EXPECT_NEAR(lambert_wm1(-5.0 * std::exp(-5.0)), -5.0, 1e-10);
}

TEST(LambertWm1, DefiningIdentityHoldsAcrossDomain) {
  for (const double x : {-0.367, -0.3, -0.1, -0.01, -1e-4, -1e-8, -1e-12}) {
    const double w = lambert_wm1(x);
    EXPECT_NEAR(w * std::exp(w), x, 1e-12 + 1e-9 * std::abs(x)) << "x = " << x;
  }
}

TEST(LambertWm1, SecondaryBranchRange) {
  for (const double x : {-0.36, -0.2, -0.001}) {
    EXPECT_LE(lambert_wm1(x), -1.0 + 1e-12) << "x = " << x;
  }
}

TEST(LambertWm1, MonotoneDecreasingTowardZero) {
  // W_{-1} decreases (to -inf) as x -> 0^-.
  EXPECT_GT(lambert_wm1(-0.3), lambert_wm1(-0.1));
  EXPECT_GT(lambert_wm1(-0.1), lambert_wm1(-0.001));
}

TEST(LambertWm1, ThrowsOutsideDomain) {
  EXPECT_THROW((void)lambert_wm1(0.0), std::domain_error);
  EXPECT_THROW((void)lambert_wm1(0.5), std::domain_error);
  EXPECT_THROW((void)lambert_wm1(-0.4), std::domain_error);
  EXPECT_THROW((void)lambert_wm1(std::nan("")), std::domain_error);
}

// Independent long-double reference for W₋₁ at a double x, solved for
// s = -1 - W ≥ 0 by Newton. Both forms of the defining equation used
// here are well conditioned in s, so the reference keeps ~1e-19
// relative accuracy right up to the branch point, where the plain
// w e^w = x residual does not:
//   near the branch point  1 - (1 + s) e^{-s} = e x + 1,
//   elsewhere              s - ln(1 + s)     = -1 - ln(-x).
// e x + 1 is formed from a two-term split of e (the long-double e plus
// its rounding remainder), so the cancellation costs nothing.
long double reference_wm1(double x) {
  constexpr long double kE = 2.718281828459045235360287471352662497757L;
  // e minus kE when long double is x87 extended (64-bit mantissa); with
  // a wider long double kE alone is already accurate enough.
  constexpr long double kELo =
      std::numeric_limits<long double>::digits == 64 ? -6.788063664127784117e-20L : 0.0L;
  const long double xl = x;
  const long double q = std::fma(kE, xl, 1.0L) + kELo * xl;
  if (q <= 0.0L) return -1.0L;
  long double s;
  if (q < 0.5L) {
    s = std::sqrt(2.0L * q);
    for (int i = 0; i < 100; ++i) {
      const long double g = -std::expm1(-s) - s * std::exp(-s) - q;
      const long double step = g / (s * std::exp(-s));
      s -= step;
      if (std::abs(step) <= 1e-22L * s) break;
    }
  } else {
    const long double c = -1.0L - std::log(-xl);
    s = 2.0L * c + 2.0L;  // right of the root: Newton descends monotonically
    for (int i = 0; i < 200; ++i) {
      const long double step = (s - std::log1p(s) - c) * (1.0L + s) / s;
      s -= step;
      if (std::abs(step) <= 1e-22L * s) break;
    }
  }
  return -1.0L - s;
}

// The sampler's hot path runs a fixed number of refinement steps with no
// convergence test, so accuracy is pinned here over a dense grid of the
// whole branch domain: consecutive doubles at the branch point, log-
// spaced offsets above it, a uniform sweep, and log-spaced magnitudes
// down to the smallest subnormal at 0⁻.
TEST(LambertWm1, RelativeErrorAgainstLongDoubleReference) {
  if constexpr (std::numeric_limits<long double>::digits < 64) {
    GTEST_SKIP() << "the reference needs an extended long double";
  }
  std::vector<double> xs;
  double x = -kInvE;
  for (int i = 0; i < 2000; ++i, x = std::nextafter(x, 0.0)) xs.push_back(x);
  for (int k = 0; k <= 400; ++k) xs.push_back(-kInvE + std::pow(10.0, -17.0 + 0.04 * k));
  for (int i = 1; i < 20'000; ++i) xs.push_back(-kInvE * i / 20'000.0);
  for (int k = 0; k <= 3000; ++k) xs.push_back(-std::pow(10.0, -0.1 * k));
  xs.push_back(-std::numeric_limits<double>::min());
  xs.push_back(-std::numeric_limits<double>::denorm_min());

  double worst = 0.0;
  double worst_x = 0.0;
  for (const double xi : xs) {
    if (xi < -kInvE || xi >= 0.0) continue;
    const long double ref = reference_wm1(xi);
    const double err = static_cast<double>(std::abs((lambert_wm1(xi) - ref) / ref));
    if (err > worst) {
      worst = err;
      worst_x = xi;
    }
  }
  EXPECT_LE(worst, 2e-13) << "worst x = " << worst_x;
}

TEST(LambertW, BranchesAgreeAtBranchPointOnly) {
  const double x = -0.2;
  EXPECT_LT(lambert_wm1(x), lambert_w0(x));
}

}  // namespace
}  // namespace locpriv::stats
