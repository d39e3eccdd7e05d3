// Lambert W function (real branches).
//
// The planar-Laplace mechanism of Geo-Indistinguishability samples its
// radius via the inverse CDF r = -(1/ε)·(W₋₁((p-1)/e) + 1), so the W₋₁
// branch is load-bearing for the whole library. W₀ refines an analytic
// seed by Halley iterations; W₋₁, the per-draw hot path, refines its seed
// by exactly two Fritsch–Shafer–Crowley steps.
#pragma once

namespace locpriv::stats {

/// Principal branch W₀(x), defined for x ≥ -1/e; W₀(x) ≥ -1.
/// Throws std::domain_error for x < -1/e (beyond rounding slack).
[[nodiscard]] double lambert_w0(double x);

/// Secondary real branch W₋₁(x), defined for x ∈ [-1/e, 0); W₋₁(x) ≤ -1.
/// Throws std::domain_error outside the branch domain.
[[nodiscard]] double lambert_wm1(double x);

}  // namespace locpriv::stats
