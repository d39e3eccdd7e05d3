// Per-session control objectives for the closed-loop configurator.
//
// The paper's workflow ends with a one-shot inversion: the designer
// states privacy/utility objectives, the fitted model is inverted once,
// ε is frozen. An ObjectiveSpec states the same objectives as a *runtime
// setpoint* instead: a target value and tolerance band per axis, plus
// the stability parameters (estimation window, decision period, step
// clamp, cooldown) that keep the online loop from oscillating on noisy
// estimates. Parsed from the same comma-separated key=value idiom as
// FaultSpec so it attaches to serve-sim as --objectives=... verbatim.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <string_view>

#include "io/spec.h"
#include "trace/event.h"

namespace locpriv::service::adaptive {

/// Setpoint + stability parameters of one user's control loop. An axis
/// with a NaN target is uncontrolled (not estimated, never steered on);
/// at least one axis must be set for the spec to validate.
struct ObjectiveSpec {
  // Setpoints. Targets are metric values; a band of ±tol around the
  // target counts as "in band" (the dead-band of the actuator).
  double privacy_target = std::numeric_limits<double>::quiet_NaN();
  double privacy_tol = 0.0;
  double utility_target = std::numeric_limits<double>::quiet_NaN();
  double utility_tol = 0.0;

  // Which metrics realize the axes. Any registry metric works; the
  // defaults pair a behaviour-sensitive privacy gauge with a cheap
  // utility gauge.
  std::string privacy_metric = "spatial-entropy-gain";
  std::string utility_metric = "cell-hit-ratio";

  // Decision cadence: re-estimate every `period_reports` delivered
  // reports, or every `period_s` virtual seconds, whichever is enabled
  // (0 disables that trigger; at least one must be on).
  std::size_t period_reports = 32;
  trace::Timestamp period_s = 0;

  // Estimation window over delivered (actual, protected) pairs: last
  // `window_pairs` pairs and/or last `window_s` virtual seconds
  // (0 = unbounded on that dimension). A decision with fewer than
  // `min_window_pairs` pairs in the window holds rather than trusting
  // a noise-dominated estimate.
  std::size_t window_pairs = 128;
  trace::Timestamp window_s = 0;
  std::size_t min_window_pairs = 16;

  // Actuator bounds. `max_step` clamps |Δ ln ε| per decision; 0 turns
  // the actuator off entirely (monitor mode: full estimation pipeline,
  // ε never moves — the static-ε baseline of the convergence bench).
  // `cooldown_s` is the minimum virtual time between two moves.
  double max_step = 0.5;
  trace::Timestamp cooldown_s = 0;

  // Hard ε domain the controller may roam; inversions outside clamp to
  // these edges with a typed saturation outcome.
  double eps_min = 1e-4;
  double eps_max = 1.0;

  // Prior d(metric)/d(ln ε) slopes used before the loop has observed
  // enough distinct operating points to fit locally, and as a sign
  // guard against locally-degenerate fits. With planar-Laplace noise,
  // more ε = less noise: entropy-style privacy gains fall with ln ε
  // (negative prior) and hit-style utilities rise (positive prior).
  double prior_privacy_slope = -1.0;
  double prior_utility_slope = 0.2;

  [[nodiscard]] bool privacy_on() const { return !std::isnan(privacy_target); }
  [[nodiscard]] bool utility_on() const { return !std::isnan(utility_target); }
  /// Monitor mode: estimate and log, never move ε.
  [[nodiscard]] bool monitor_only() const { return max_step == 0.0; }

  /// Throws std::invalid_argument on an inconsistent spec (no axis set,
  /// non-positive tolerance on an enabled axis, no decision trigger,
  /// empty ε domain, ...).
  void validate() const;
};

/// The spec's keys, one row each; parsing, printing and the
/// --objectives help all read this table.
inline constexpr io::SpecKey<ObjectiveSpec> kObjectiveSpecKeys[] = {
    {"pr", &ObjectiveSpec::privacy_target},
    {"pr_tol", &ObjectiveSpec::privacy_tol},
    {"pr_metric", &ObjectiveSpec::privacy_metric},
    {"ut", &ObjectiveSpec::utility_target},
    {"ut_tol", &ObjectiveSpec::utility_tol},
    {"ut_metric", &ObjectiveSpec::utility_metric},
    {"period_n", &ObjectiveSpec::period_reports},
    {"period_s", &ObjectiveSpec::period_s},
    {"window_n", &ObjectiveSpec::window_pairs},
    {"window_s", &ObjectiveSpec::window_s},
    {"min_n", &ObjectiveSpec::min_window_pairs},
    {"max_step", &ObjectiveSpec::max_step},
    {"cooldown_s", &ObjectiveSpec::cooldown_s},
    {"eps_min", &ObjectiveSpec::eps_min},
    {"eps_max", &ObjectiveSpec::eps_max},
    {"pr_slope", &ObjectiveSpec::prior_privacy_slope},
    {"ut_slope", &ObjectiveSpec::prior_utility_slope},
};

/// Parses a comma-separated `key=value` spec (io::parse_spec over
/// kObjectiveSpecKeys), then validates it. Unknown keys, values their
/// field cannot hold and inconsistent settings throw
/// std::invalid_argument naming the key.
[[nodiscard]] ObjectiveSpec parse_objective_spec(std::string_view spec);

/// Canonical spec string (parse round-trips); only set axes and
/// non-default knobs appear.
[[nodiscard]] std::string to_string(const ObjectiveSpec& spec);

}  // namespace locpriv::service::adaptive
