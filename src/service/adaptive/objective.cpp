#include "service/adaptive/objective.h"

#include <stdexcept>

namespace locpriv::service::adaptive {

void ObjectiveSpec::validate() const {
  if (!privacy_on() && !utility_on()) {
    throw std::invalid_argument("ObjectiveSpec: at least one of pr/ut targets must be set");
  }
  if (privacy_on() && !(privacy_tol > 0.0)) {
    throw std::invalid_argument("ObjectiveSpec: pr_tol must be > 0 when pr is set");
  }
  if (utility_on() && !(utility_tol > 0.0)) {
    throw std::invalid_argument("ObjectiveSpec: ut_tol must be > 0 when ut is set");
  }
  if (privacy_on() && privacy_metric.empty()) {
    throw std::invalid_argument("ObjectiveSpec: pr_metric must be non-empty");
  }
  if (utility_on() && utility_metric.empty()) {
    throw std::invalid_argument("ObjectiveSpec: ut_metric must be non-empty");
  }
  if (period_reports == 0 && period_s <= 0) {
    throw std::invalid_argument("ObjectiveSpec: need a decision trigger (period_n or period_s)");
  }
  if (min_window_pairs < 2) {
    throw std::invalid_argument("ObjectiveSpec: min_n must be >= 2");
  }
  if (window_pairs > 0 && window_pairs < min_window_pairs) {
    throw std::invalid_argument("ObjectiveSpec: window_n must be >= min_n");
  }
  if (!(max_step >= 0.0)) {
    throw std::invalid_argument("ObjectiveSpec: max_step must be >= 0");
  }
  if (cooldown_s < 0) {
    throw std::invalid_argument("ObjectiveSpec: cooldown_s must be >= 0");
  }
  if (!(eps_min > 0.0) || !(eps_max > eps_min)) {
    throw std::invalid_argument("ObjectiveSpec: need 0 < eps_min < eps_max");
  }
  if (privacy_on() && (!std::isfinite(prior_privacy_slope) || prior_privacy_slope == 0.0)) {
    throw std::invalid_argument("ObjectiveSpec: pr_slope must be finite and nonzero");
  }
  if (utility_on() && (!std::isfinite(prior_utility_slope) || prior_utility_slope == 0.0)) {
    throw std::invalid_argument("ObjectiveSpec: ut_slope must be finite and nonzero");
  }
}

ObjectiveSpec parse_objective_spec(std::string_view spec) {
  ObjectiveSpec out = io::parse_spec(spec, kObjectiveSpecKeys, "objective spec");
  out.validate();
  return out;
}

std::string to_string(const ObjectiveSpec& spec) {
  return io::format_spec(spec, kObjectiveSpecKeys);
}

}  // namespace locpriv::service::adaptive
