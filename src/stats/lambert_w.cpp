#include "stats/lambert_w.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace locpriv::stats {
namespace {

constexpr double kInvE = 0.36787944117144232159552377016146;  // 1/e
constexpr int kMaxIterations = 64;
constexpr double kTolerance = 1e-14;

/// Halley's method on f(w) = w e^w - x. Cubic convergence; with a decent
/// seed a handful of iterations reaches machine precision. Near the
/// branch point (w ≈ -1) the derivative vanishes, so iteration stops on
/// a degenerate denominator and the series seed is returned as-is.
double halley_refine(double w, double x) {
  for (int i = 0; i < kMaxIterations; ++i) {
    const double ew = std::exp(w);
    const double f = w * ew - x;
    if (f == 0.0) break;
    const double wp1 = w + 1.0;
    const double denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1);
    if (!std::isfinite(denom) || denom == 0.0) break;
    const double step = f / denom;
    if (!std::isfinite(step)) break;
    w -= step;
    if (std::abs(step) <= kTolerance * (1.0 + std::abs(w))) break;
  }
  return w;
}

/// e as the nearest double plus its rounding remainder, for forming
/// e x + 1 without cancellation.
constexpr double kEHi = 2.718281828459045;
constexpr double kELo = 1.4456468917292502e-16;

/// Below this p = sqrt(2 (e x + 1)) the branch-point series of W₋₁ is
/// exact to rounding: its first omitted term is ~0.016 p^7 ≤ 2e-16.
constexpr double kSeriesOnlyBelow = 0.01;

/// One Fritsch–Shafer–Crowley step for W₋₁ on the log form of the
/// defining equation, z = ln(-x) - ln(-w) - w; quartic convergence.
/// `log_negx` is ln(-x), shared by both steps.
double fsc_step(double w, double log_negx) {
  const double wp1 = 1.0 + w;
  const double z = log_negx - std::log(-w) - w;
  const double q = 2.0 * wp1 * (wp1 + z * (2.0 / 3.0));
  return w + w * (z * (q - z)) / (wp1 * (q - 2.0 * z));
}

/// Distance above the branch point, clamped against rounding: for
/// x == -1/e the exact value is 0 but floating arithmetic can yield a
/// tiny negative.
double branch_offset(double x) { return std::max(0.0, 2.0 * (std::exp(1.0) * x + 1.0)); }

}  // namespace

double lambert_w0(double x) {
  if (std::isnan(x)) throw std::domain_error("lambert_w0: NaN input");
  if (x < -kInvE) {
    if (x > -kInvE - 1e-12) return -1.0;  // rounding slack at the branch point
    throw std::domain_error("lambert_w0: x < -1/e");
  }
  if (x == 0.0) return 0.0;
  double w;
  if (x < -0.25) {
    // Series around the branch point x = -1/e: W = -1 + p - p^2/3 + ...,
    // p = sqrt(2 (e x + 1)).
    const double p = std::sqrt(branch_offset(x));
    w = -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0;
    if (p < 1e-4) return w;  // series already at machine precision
  } else if (x < 3.0) {
    // Pade-ish seed near zero; Halley converges from here for all
    // moderate x (the asymptotic seed below breaks down at ln x ≈ 0).
    w = x * (1.0 - x + 1.5 * x * x) / (1.0 + 0.5 * x);
    w = std::clamp(w, -0.99, 1.5);
  } else {
    // Asymptotic seed for large x: W ≈ ln x - ln ln x + ln ln x / ln x.
    const double l1 = std::log(x);
    const double l2 = std::log(l1);
    w = l1 - l2 + l2 / l1;
  }
  return halley_refine(w, x);
}

double lambert_wm1(double x) {
  if (std::isnan(x)) throw std::domain_error("lambert_wm1: NaN input");
  if (x >= 0.0 || x < -kInvE) {
    if (x < -kInvE && x > -kInvE - 1e-12) return -1.0;
    throw std::domain_error("lambert_wm1: x outside [-1/e, 0)");
  }
  // Seed, then exactly two Fritsch–Shafer–Crowley steps (quartic
  // convergence, one log each): every seed below is within 1e-2
  // relative of the root, so two steps land at double precision and no
  // convergence test is needed.
  const double l1 = std::log(-x);
  double w;
  if (x < -0.25) {
    // Series around the branch point, lower sign, in p = sqrt(2 (e x + 1)):
    // W = -1 - p - p^2/3 - 11p^3/72 - 43p^4/540 - 769p^5/17280 - 221p^6/8505.
    // e x + 1 cancels catastrophically near the branch point, so it is
    // formed from a two-term split of e, the cancelling product inside
    // one fma: p stays accurate to a few ulp however close x is to -1/e.
    const double q = std::max(0.0, std::fma(kEHi, x, 1.0) + kELo * x);
    const double p = std::sqrt(2.0 * q);
    w = -1.0 -
        p * (1.0 +
             p * (1.0 / 3.0 +
                  p * (11.0 / 72.0 +
                       p * (43.0 / 540.0 + p * (769.0 / 17280.0 + p * (221.0 / 8505.0))))));
    // Close to the branch point the truncated series is already exact
    // to rounding, while a refinement step would divide a rounding-level
    // residual by 1 + w ≈ -p and lose accuracy.
    if (p < kSeriesOnlyBelow) return w;
  } else {
    // Asymptotic expansion near zero⁻ in L1 = ln(-x), L2 = ln(-L1):
    // W = L1 - L2 + L2/L1 + L2(L2-2)/(2 L1^2) + L2(6 - 9 L2 + 2 L2^2)/(6 L1^3).
    const double l2 = std::log(-l1);
    const double r = 1.0 / l1;
    w = l1 - l2 +
        l2 * r * (1.0 + r * (0.5 * (l2 - 2.0) + r * (6.0 + l2 * (2.0 * l2 - 9.0)) / 6.0));
  }
  w = fsc_step(w, l1);
  return fsc_step(w, l1);
}

}  // namespace locpriv::stats
