#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <utility>

#include "lppm/gaussian.h"
#include "lppm/geo_ind.h"
#include "lppm/noop.h"
#include "lppm/promesse.h"
#include "metrics/area_coverage.h"
#include "metrics/cell_hit.h"
#include "metrics/distortion.h"
#include "metrics/eval_context.h"
#include "metrics/home_inference.h"
#include "metrics/poi_preservation.h"
#include "metrics/poi_retrieval.h"
#include "metrics/registry.h"
#include "metrics/reident_metric.h"
#include "metrics/spatial_entropy.h"
#include "metrics/transform.h"
#include "metrics/trip_length.h"
#include "metrics/worst_case.h"
#include "test_util.h"

namespace locpriv::metrics {
namespace {

trace::Dataset identity_protected(const trace::Dataset& d) {
  return lppm::NoopMechanism{}.protect_dataset(d, 0);
}

TEST(MetricFramework, RequirePairedChecksIdsAndSizes) {
  trace::Dataset a = testutil::two_stop_dataset(2);
  trace::Dataset b = testutil::two_stop_dataset(3);
  EXPECT_THROW(require_paired(a, b), std::invalid_argument);
  trace::Dataset c;
  c.add(trace::Trace("other", {{0, {0, 0}}}));
  c.add(trace::Trace("u1", {{0, {0, 0}}}));
  EXPECT_THROW(require_paired(a, c), std::invalid_argument);
  EXPECT_NO_THROW(require_paired(a, a));
}

TEST(MetricFramework, DirectionPredicates) {
  EXPECT_TRUE(is_privacy_direction(Direction::kLowerIsMorePrivate));
  EXPECT_TRUE(is_privacy_direction(Direction::kHigherIsMorePrivate));
  EXPECT_FALSE(is_privacy_direction(Direction::kHigherIsMoreUseful));
  EXPECT_FALSE(is_privacy_direction(Direction::kLowerIsMoreUseful));
}

TEST(PoiRetrieval, FullRetrievalWithoutProtection) {
  const PoiRetrieval metric;
  const trace::Dataset d = testutil::two_stop_dataset(3);
  EXPECT_DOUBLE_EQ(metric.evaluate(d, identity_protected(d)), 1.0);
  EXPECT_EQ(metric.direction(), Direction::kLowerIsMorePrivate);
}

TEST(PoiRetrieval, DropsUnderHeavyNoise) {
  const PoiRetrieval metric;
  const trace::Dataset d = testutil::two_stop_dataset(3);
  const lppm::GeoIndistinguishability strong(1e-4);
  EXPECT_LT(metric.evaluate(d, strong.protect_dataset(d, 1)), 0.4);
}

TEST(PoiRetrieval, MonotoneInEpsilon) {
  const PoiRetrieval metric;
  const trace::Dataset d = testutil::two_stop_dataset(4);
  double prev = -1.0;
  for (const double eps : {1e-4, 1e-2, 1.0}) {
    const lppm::GeoIndistinguishability mech(eps);
    const double v = metric.evaluate(d, mech.protect_dataset(d, 1));
    EXPECT_GE(v, prev) << "eps = " << eps;
    prev = v;
  }
}

TEST(AreaCoverage, PerfectWithoutProtection) {
  const AreaCoverage metric;
  const trace::Dataset d = testutil::two_stop_dataset(3);
  EXPECT_DOUBLE_EQ(metric.evaluate(d, identity_protected(d)), 1.0);
  EXPECT_EQ(metric.direction(), Direction::kHigherIsMoreUseful);
}

TEST(AreaCoverage, DegradesWithNoise) {
  const AreaCoverage metric;
  const trace::Dataset d = testutil::two_stop_dataset(3);
  const lppm::GaussianPerturbation noisy(2000.0);
  EXPECT_LT(metric.evaluate(d, noisy.protect_dataset(d, 1)), 0.5);
}

TEST(AreaCoverage, JaccardFlavorNoGreaterThanF1) {
  const trace::Dataset d = testutil::two_stop_dataset(3);
  const lppm::GaussianPerturbation noisy(300.0);
  const trace::Dataset p = noisy.protect_dataset(d, 1);
  const AreaCoverage f1(115.0, AreaCoverage::Flavor::kF1);
  const AreaCoverage jac(115.0, AreaCoverage::Flavor::kJaccard);
  EXPECT_LE(jac.evaluate(d, p), f1.evaluate(d, p) + 1e-12);
  EXPECT_NE(f1.name(), jac.name());
}

// The registry metric on a fixed protected dataset against the same F1
// computed here from ordered node sets of libm-floored cells: cell
// counts are integers, so the two must agree bit for bit.
TEST(AreaCoverage, F1MatchesOrderedSetReferenceBitForBit) {
  const trace::Dataset d = testutil::two_stop_dataset(4);
  const trace::Dataset p = lppm::GeoIndistinguishability(0.01).protect_dataset(d, 7);
  const double cell = 115.0;
  const auto cells_of = [&](const trace::Trace& t) {
    std::set<std::pair<std::int64_t, std::int64_t>> cells;
    for (const trace::Event& e : t) {
      cells.emplace(static_cast<std::int64_t>(std::floor(e.location.x / cell)),
                    static_cast<std::int64_t>(std::floor(e.location.y / cell)));
    }
    return cells;
  };
  double sum = 0.0;
  for (std::size_t u = 0; u < d.size(); ++u) {
    const auto actual = cells_of(d[u]);
    const auto predicted = cells_of(p[u]);
    std::size_t inter = 0;
    for (const auto& c : predicted) inter += actual.count(c);
    const double precision = static_cast<double>(inter) / static_cast<double>(predicted.size());
    const double recall = static_cast<double>(inter) / static_cast<double>(actual.size());
    sum += precision + recall == 0.0 ? 0.0 : 2.0 * precision * recall / (precision + recall);
  }
  const double expected = sum / static_cast<double>(d.size());
  ASSERT_GT(expected, 0.0);
  ASSERT_LT(expected, 1.0);
  const double value = create_metric("area-coverage-f1")->evaluate(EvalContext(d, p));
  EXPECT_EQ(std::memcmp(&value, &expected, sizeof value), 0) << value << " vs " << expected;
}

TEST(AreaCoverage, RejectsBadCellSize) {
  EXPECT_THROW(AreaCoverage(0.0), std::invalid_argument);
}

TEST(CellHit, PerfectWithoutProtectionAndDegrades) {
  const CellHitRatio metric;
  const trace::Dataset d = testutil::two_stop_dataset(2);
  EXPECT_DOUBLE_EQ(metric.evaluate(d, identity_protected(d)), 1.0);
  const lppm::GaussianPerturbation noisy(5000.0);
  EXPECT_LT(metric.evaluate(d, noisy.protect_dataset(d, 1)), 0.2);
}

TEST(CellHit, HandlesCardinalityChangingMechanisms) {
  // Promesse changes the number of events; pairing falls back to
  // nearest timestamp and must not crash.
  const CellHitRatio metric;
  const trace::Dataset d = testutil::two_stop_dataset(2);
  const lppm::Promesse promesse(100.0);
  const double v = metric.evaluate(d, promesse.protect_dataset(d, 1));
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

TEST(MeanDistortion, ZeroWithoutProtection) {
  const MeanDistortion metric;
  const trace::Dataset d = testutil::two_stop_dataset(2);
  EXPECT_DOUBLE_EQ(metric.evaluate(d, identity_protected(d)), 0.0);
  EXPECT_EQ(metric.direction(), Direction::kLowerIsMoreUseful);
}

TEST(MeanDistortion, TracksGeoIndNoiseScale) {
  const MeanDistortion metric;
  const trace::Dataset d = testutil::two_stop_dataset(4);
  const double eps = 0.01;
  const lppm::GeoIndistinguishability mech(eps);
  const double v = metric.evaluate(d, mech.protect_dataset(d, 1));
  EXPECT_NEAR(v, 2.0 / eps, 0.25 * (2.0 / eps));
}

TEST(SpatialEntropy, ZeroGainWithoutProtectionAndPositiveWithNoise) {
  const SpatialEntropyGain metric;
  const trace::Dataset d = testutil::two_stop_dataset(3);
  EXPECT_DOUBLE_EQ(metric.evaluate(d, identity_protected(d)), 0.0);
  const lppm::GaussianPerturbation noisy(1000.0);
  EXPECT_GT(metric.evaluate(d, noisy.protect_dataset(d, 1)), 0.5);
  EXPECT_EQ(metric.direction(), Direction::kHigherIsMorePrivate);
}

TEST(ReidentMetric, OneOnCleanDataAndDropsWithNoise) {
  const ReidentificationRate metric;
  const trace::Dataset d = testutil::two_stop_dataset(5);
  EXPECT_DOUBLE_EQ(metric.evaluate(d, identity_protected(d)), 1.0);
  const lppm::GeoIndistinguishability strong(2e-4);
  EXPECT_LT(metric.evaluate(d, strong.protect_dataset(d, 1)), 1.0);
}

TEST(LogTransform, AppliesLog1pAndKeepsDirection) {
  const LogTransformedMetric metric(std::make_unique<MeanDistortion>());
  EXPECT_EQ(metric.name(), "log-mean-distortion");
  EXPECT_EQ(metric.direction(), Direction::kLowerIsMoreUseful);
  const trace::Dataset d = testutil::two_stop_dataset(2);
  // Identity protection: distortion 0 -> log1p(0) = 0.
  EXPECT_DOUBLE_EQ(metric.evaluate(d, identity_protected(d)), 0.0);
  const lppm::GaussianPerturbation noisy(500.0);
  const trace::Dataset p = noisy.protect_dataset(d, 1);
  const MeanDistortion raw;
  EXPECT_NEAR(metric.evaluate(d, p), std::log1p(raw.evaluate(d, p)), 1e-12);
}

TEST(LogTransform, RejectsNullInner) {
  EXPECT_THROW(LogTransformedMetric(nullptr), std::invalid_argument);
}

TEST(TripLength, ZeroErrorWithoutProtectionAndGrowsWithNoise) {
  const TripLengthError metric;
  const trace::Dataset d = testutil::two_stop_dataset(2);
  EXPECT_DOUBLE_EQ(metric.evaluate(d, identity_protected(d)), 0.0);
  // Noise inflates path length: each of ~60 reports wiggles ~125 m.
  const lppm::GaussianPerturbation noisy(100.0);
  EXPECT_GT(metric.evaluate(d, noisy.protect_dataset(d, 1)), 0.5);
  EXPECT_EQ(metric.direction(), Direction::kLowerIsMoreUseful);
}

TEST(TripLength, ZeroForStationaryActual) {
  const TripLengthError metric;
  const trace::Trace still = testutil::stationary_trace("u", {0, 0}, 600);
  EXPECT_DOUBLE_EQ(metric.evaluate_trace(still, still), 0.0);
}

TEST(HomeInference, DetectsHomeLossUnderNoise) {
  const HomeInferenceRate metric;
  // Commuter-like day: long night stay at home.
  trace::Trace t("u");
  for (trace::Timestamp now = 0; now <= 7 * 3600; now += 300) t.append({now, {100, 100}});
  for (trace::Timestamp now = 9 * 3600; now <= 17 * 3600; now += 300) {
    t.append({now, {100, 5100}});
  }
  trace::Dataset d;
  d.add(std::move(t));
  EXPECT_DOUBLE_EQ(metric.evaluate(d, identity_protected(d)), 1.0);
  const lppm::GeoIndistinguishability strong(2e-4);  // ~10 km noise
  EXPECT_LT(metric.evaluate(d, strong.protect_dataset(d, 3)), 1.0);
  EXPECT_EQ(metric.direction(), Direction::kLowerIsMorePrivate);
  EXPECT_THROW(HomeInferenceRate({}, 0.0), std::invalid_argument);
}

TEST(PoiPreservation, MirrorsRetrievalOnTheUtilityAxis) {
  const PoiPreservation utility_view;
  const PoiRetrieval privacy_view;
  EXPECT_EQ(utility_view.direction(), Direction::kHigherIsMoreUseful);
  const trace::Dataset d = testutil::two_stop_dataset(3);
  const lppm::GeoIndistinguishability mech(0.02);
  const trace::Dataset p = mech.protect_dataset(d, 3);
  // Same number, opposite declared axis: one app's leak is another's product.
  EXPECT_DOUBLE_EQ(utility_view.evaluate(d, p), privacy_view.evaluate(d, p));
}

TEST(WorstCase, DominatesTheNaiveAdversary) {
  const WorstCasePoiRetrieval worst;
  const PoiRetrieval naive;
  const trace::Dataset d = testutil::two_stop_dataset(3);
  // Moderate noise where the adversaries genuinely differ.
  const lppm::GeoIndistinguishability mech(0.008);
  const trace::Dataset p = mech.protect_dataset(d, 5);
  EXPECT_GE(worst.evaluate(d, p), naive.evaluate(d, p));
  // On unprotected data everyone retrieves everything.
  EXPECT_DOUBLE_EQ(worst.evaluate(d, identity_protected(d)), 1.0);
}

TEST(Registry, ListsAllMetrics) {
  const auto names = metric_names();
  EXPECT_EQ(names.size(), 17u);
  for (const char* expected :
       {"poi-retrieval", "poi-preservation", "poi-retrieval-worst-case", "area-coverage-f1", "area-coverage-jaccard", "cell-hit-ratio",
        "mean-distortion", "log-mean-distortion", "dtw-distortion", "log-dtw-distortion",
        "reidentification-rate", "home-inference-rate", "trip-length-error",
        "log-trip-length-error", "spatial-entropy-gain", "tracking-error",
        "tracking-reident"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
  EXPECT_THROW((void)create_metric("bogus"), std::invalid_argument);
}

// Contract sweep over every registered metric.
class MetricContract : public ::testing::TestWithParam<std::string> {};

TEST_P(MetricContract, NameMatchesRegistryKey) {
  EXPECT_EQ(create_metric(GetParam())->name(), GetParam());
}

TEST_P(MetricContract, EvaluatesOnPairedDatasets) {
  const auto metric = create_metric(GetParam());
  const trace::Dataset d = testutil::two_stop_dataset(3);
  const double v = metric->evaluate(d, identity_protected(d));
  EXPECT_TRUE(std::isfinite(v));
}

TEST_P(MetricContract, RejectsMismatchedDatasets) {
  const auto metric = create_metric(GetParam());
  const trace::Dataset a = testutil::two_stop_dataset(3);
  const trace::Dataset b = testutil::two_stop_dataset(2);
  EXPECT_THROW((void)metric->evaluate(a, b), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricContract, ::testing::ValuesIn(metric_names()));

}  // namespace
}  // namespace locpriv::metrics
