// End-to-end tests of the three-step framework on synthetic city data —
// the full paper pipeline: generate data, sweep Geo-I, fit Eq. 2, invert
// for objectives, verify the configured mechanism actually delivers.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/model_store.h"
#include "core/pipeline.h"
#include "lppm/geo_ind.h"
#include "synth/scenario.h"
#include "test_util.h"

namespace locpriv::core {
namespace {

/// Small-but-real taxi dataset (fast enough for CI).
trace::Dataset small_taxi_dataset() {
  synth::TaxiScenarioConfig cfg;
  cfg.driver_count = 6;
  cfg.taxi.shift_duration_s = 6 * 3600;
  return synth::make_taxi_dataset(cfg, 99);
}

ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.trials = 1;
  cfg.seed = 7;
  return cfg;
}

class FrameworkEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new trace::Dataset(small_taxi_dataset());
    framework_ = new Framework(make_geo_i_system(17));
    framework_->model_phase(*data_, fast_config());
  }
  static void TearDownTestSuite() {
    delete framework_;
    delete data_;
    framework_ = nullptr;
    data_ = nullptr;
  }

  static trace::Dataset* data_;
  static Framework* framework_;
};

trace::Dataset* FrameworkEndToEnd::data_ = nullptr;
Framework* FrameworkEndToEnd::framework_ = nullptr;

TEST_F(FrameworkEndToEnd, SweepHasFigureOneShape) {
  const SweepResult& sweep = framework_->sweep();
  ASSERT_EQ(sweep.points.size(), 17u);
  // Privacy: ~0 at eps = 1e-4, high at eps = 1 (Figure 1a).
  EXPECT_LT(sweep.points.front().privacy_mean, 0.2);
  EXPECT_GT(sweep.points.back().privacy_mean, 0.6);
  // Utility increases with eps (Figure 1b).
  EXPECT_LT(sweep.points.front().utility_mean, sweep.points.back().utility_mean);
}

TEST_F(FrameworkEndToEnd, ModelIsLogLinearWithPositiveSlopes) {
  const LppmModel& model = framework_->model();
  EXPECT_GT(model.privacy.fit.slope, 0.0);
  EXPECT_GT(model.utility.fit.slope, 0.0);
  EXPECT_GT(model.privacy.fit.r_squared, 0.7);
  EXPECT_GT(model.utility.fit.r_squared, 0.7);
  EXPECT_LT(model.param_low, model.param_high);
}

TEST_F(FrameworkEndToEnd, ConfigurationMeetsObjectivesInPractice) {
  // The paper's case study, on synthetic data: bound POI retrieval, then
  // verify the *measured* metrics at the recommended epsilon honor the
  // objective within sampling noise.
  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 0.35}};
  const Configuration cfg = framework_->configure(objectives);
  ASSERT_TRUE(cfg.feasible) << cfg.diagnosis;

  const SweepPoint measured =
      evaluate_point(framework_->definition(), *data_, cfg.recommended, 3, 1234);
  EXPECT_LE(measured.privacy_mean, 0.35 + 0.15)  // model + trial noise slack
      << "recommended eps = " << cfg.recommended;
}

TEST_F(FrameworkEndToEnd, MarginConfigurationIsMoreConservative) {
  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 0.5}};
  const Configuration nominal = framework_->configure(objectives);
  const Configuration safe = framework_->configure_with_margin(objectives, 1.0);
  ASSERT_TRUE(nominal.feasible);
  if (safe.feasible) {
    EXPECT_LE(safe.recommended, nominal.recommended);
  } else {
    // A margin can legitimately push the objective out of the fitted span.
    EXPECT_NE(safe.diagnosis.find("residual margin"), std::string::npos);
  }
}

TEST_F(FrameworkEndToEnd, ConfigureMechanismAppliesParameter) {
  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 0.35}};
  const auto mechanism = framework_->configure_mechanism(objectives);
  ASSERT_NE(mechanism, nullptr);
  const Configuration cfg = framework_->configure(objectives);
  EXPECT_DOUBLE_EQ(mechanism->parameter("epsilon"), cfg.recommended);
}

TEST_F(FrameworkEndToEnd, InfeasibleObjectivesThrowFromConfigureMechanism) {
  const std::vector<Objective> impossible{
      {Axis::kPrivacy, Sense::kAtMost, 0.0001},
      {Axis::kUtility, Sense::kAtLeast, 0.9999},
  };
  EXPECT_THROW((void)framework_->configure_mechanism(impossible), std::runtime_error);
}

TEST_F(FrameworkEndToEnd, ModelSurvivesPersistenceRoundTrip) {
  const testutil::ScratchDir scratch;
  const std::string path = scratch.path("locpriv_e2e_model.json");
  save_model(path, framework_->model());

  Framework fresh(make_geo_i_system(17));
  EXPECT_FALSE(fresh.has_model());
  fresh.install_model(load_model(path));
  ASSERT_TRUE(fresh.has_model());

  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 0.35}};
  const Configuration a = framework_->configure(objectives);
  const Configuration b = fresh.configure(objectives);
  EXPECT_DOUBLE_EQ(a.recommended, b.recommended);
  EXPECT_EQ(a.feasible, b.feasible);
}

TEST(FrameworkLifecycle, AccessorsThrowBeforeModelPhase) {
  const Framework f(make_geo_i_system(8));
  EXPECT_FALSE(f.has_model());
  EXPECT_THROW((void)f.model(), std::logic_error);
  EXPECT_THROW((void)f.sweep(), std::logic_error);
  EXPECT_THROW((void)f.configure({}), std::logic_error);
}

TEST(FrameworkLifecycle, RejectsMalformedDefinitionEagerly) {
  SystemDefinition bad = make_geo_i_system(8);
  bad.privacy = nullptr;
  EXPECT_THROW(Framework{std::move(bad)}, std::invalid_argument);
}

TEST(FrameworkCommuter, PipelineWorksOnCommuterWorkloadToo) {
  // The framework is workload-agnostic: run the full loop on commuters.
  synth::CommuterScenarioConfig scenario;
  scenario.user_count = 4;
  scenario.commuter.days = 1;
  const trace::Dataset data = synth::make_commuter_dataset(scenario, 11);

  Framework f(make_geo_i_system(13));
  const LppmModel& model = f.model_phase(data, fast_config());
  EXPECT_GT(model.privacy.fit.slope, 0.0);
  const Configuration cfg = f.configure(std::vector<Objective>{
      {Axis::kPrivacy, Sense::kAtMost, 0.5}});
  EXPECT_TRUE(cfg.feasible) << cfg.diagnosis;
}

}  // namespace
}  // namespace locpriv::core
