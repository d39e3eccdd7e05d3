// Ablation F: does the fitted model generalize, and how certain are the
// sweep points?
//
// Part 1: k-fold cross-validation over users — fit Eq. 2 on k-1 folds,
// measure prediction RMSE on the held-out users.
// Part 2: bootstrap confidence intervals for the per-user privacy metric
// at representative epsilons (error bars for Figure 1a).
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/validation.h"
#include "io/table.h"
#include "lppm/geo_ind.h"
#include "metrics/poi_retrieval.h"
#include "stats/bootstrap.h"

int main() {
  using namespace locpriv;

  std::cout << "=== Ablation F: model generalization and point uncertainty ===\n\n";

  const trace::Dataset data = bench::standard_taxi_dataset();

  // --- Part 1: cross-validation. ---
  core::SystemDefinition def = bench::paper_system(17);
  core::ExperimentConfig cfg = bench::standard_experiment();
  cfg.trials = 2;
  const core::CrossValidationReport report = core::cross_validate(def, data, 4, cfg);

  io::Table cv({"fold", "train users", "test users", "Pr RMSE (held-out)", "Ut RMSE (held-out)",
                "train Pr R^2"});
  for (const core::FoldReport& f : report.folds) {
    cv.add_row({std::to_string(f.fold), std::to_string(f.train_users),
                std::to_string(f.test_users), io::Table::num(f.privacy_rmse, 3),
                io::Table::num(f.utility_rmse, 3), io::Table::num(f.privacy_r_squared, 3)});
  }
  cv.print(std::cout);
  std::cout << "\nmean held-out RMSE: privacy " << io::Table::num(report.mean_privacy_rmse, 3)
            << ", utility " << io::Table::num(report.mean_utility_rmse, 3) << "\n";
  const bool generalizes = report.mean_privacy_rmse < 0.25 && report.mean_utility_rmse < 0.25;
  std::cout << "generalization check (held-out RMSE < 0.25): " << (generalizes ? "PASS" : "FAIL")
            << "\n\n";

  // --- Part 2: bootstrap CIs over users at representative epsilons. ---
  std::cout << "bootstrap 95% CIs for the privacy metric (per-user resampling):\n\n";
  io::Table ci_table({"epsilon", "mean Pr", "95% CI", "CI width"});
  for (const double eps : {0.005, 0.01, 0.02, 0.05}) {
    const std::vector<core::PerUserPoint> breakdown =
        core::evaluate_point_per_user(def, data, eps, 99);
    std::vector<double> per_user;
    per_user.reserve(breakdown.size());
    for (const core::PerUserPoint& p : breakdown) per_user.push_back(p.privacy);
    const stats::ConfidenceInterval ci = stats::bootstrap_mean_ci(per_user, 0.95, 2000, 7);
    ci_table.add_row({io::Table::num(eps, 3), io::Table::num(ci.point_estimate, 3),
                      io::Table::interval(ci.lower, ci.upper, 3),
                      io::Table::num(ci.width(), 3)});
  }
  ci_table.print(std::cout);
  std::cout << "\nreading: the transition-zone points carry the widest intervals —\n"
               "exactly where the configuration decision lives, so trials and users\n"
               "should concentrate there.\n";
  return 0;
}
