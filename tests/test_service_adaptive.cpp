#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/json.h"
#include "metrics/metric.h"
#include "obs/tracer.h"
#include "service/adaptive/control_log.h"
#include "service/adaptive/controller.h"
#include "service/adaptive/objective.h"
#include "service/adaptive/session.h"
#include "service/audit.h"
#include "service/gateway.h"
#include "service/load_driver.h"
#include "synth/scenario.h"

namespace locpriv::service::adaptive {
namespace {

// ---------------------------------------------------------------- spec

TEST(ObjectiveSpec, ParseRoundTrips) {
  const ObjectiveSpec spec = parse_objective_spec(
      "pr=0.5,pr_tol=0.2,ut=0.9,ut_tol=0.1,period_n=16,window_n=64,min_n=8,max_step=0.4,"
      "cooldown_s=600,eps_min=0.001,eps_max=0.5,pr_slope=-2,ut_slope=0.5");
  EXPECT_DOUBLE_EQ(spec.privacy_target, 0.5);
  EXPECT_DOUBLE_EQ(spec.privacy_tol, 0.2);
  EXPECT_DOUBLE_EQ(spec.utility_target, 0.9);
  EXPECT_DOUBLE_EQ(spec.utility_tol, 0.1);
  EXPECT_EQ(spec.period_reports, 16u);
  EXPECT_EQ(spec.window_pairs, 64u);
  EXPECT_EQ(spec.min_window_pairs, 8u);
  EXPECT_DOUBLE_EQ(spec.max_step, 0.4);
  EXPECT_EQ(spec.cooldown_s, 600);
  EXPECT_DOUBLE_EQ(spec.eps_min, 0.001);
  EXPECT_DOUBLE_EQ(spec.eps_max, 0.5);
  EXPECT_DOUBLE_EQ(spec.prior_privacy_slope, -2.0);
  EXPECT_DOUBLE_EQ(spec.prior_utility_slope, 0.5);
  // Canonical string parses back to the same spec.
  const ObjectiveSpec again = parse_objective_spec(to_string(spec));
  EXPECT_EQ(to_string(again), to_string(spec));
}

TEST(ObjectiveSpec, ParseMetricNames) {
  const ObjectiveSpec spec =
      parse_objective_spec("pr=0.2,pr_tol=0.1,pr_metric=poi-retrieval,ut_metric=mean-distortion");
  EXPECT_EQ(spec.privacy_metric, "poi-retrieval");
  EXPECT_EQ(spec.utility_metric, "mean-distortion");
}

TEST(ObjectiveSpec, ParseRejectsBadInput) {
  EXPECT_THROW(parse_objective_spec("pr=0.5,pr_tol=0.2,bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_objective_spec("pr=abc"), std::invalid_argument);
  EXPECT_THROW(parse_objective_spec("pr0.5"), std::invalid_argument);
  // No axis target at all.
  EXPECT_THROW(parse_objective_spec("period_n=16"), std::invalid_argument);
  // Enabled axis without a tolerance band.
  EXPECT_THROW(parse_objective_spec("pr=0.5"), std::invalid_argument);
  // Empty ε domain.
  EXPECT_THROW(parse_objective_spec("pr=0.5,pr_tol=0.2,eps_min=0.5,eps_max=0.1"),
               std::invalid_argument);
  // No decision trigger.
  EXPECT_THROW(parse_objective_spec("pr=0.5,pr_tol=0.2,period_n=0"), std::invalid_argument);
}

// ---------------------------------------------------------- controller

/// Test gauge the controller cannot see through: the mean x-coordinate
/// of the protected window. Tests steer the measured value directly by
/// choosing the protected events they feed.
class MeanProtectedX final : public metrics::Metric {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "mean-protected-x";
    return kName;
  }
  [[nodiscard]] metrics::Direction direction() const override {
    return metrics::Direction::kHigherIsMorePrivate;
  }
  [[nodiscard]] double evaluate(const metrics::EvalContext& ctx) const override {
    double sum = 0.0;
    std::size_t n = 0;
    for (const trace::Trace& t : ctx.protected_data()) {
      for (const trace::Event& e : t) {
        sum += e.location.x;
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }
};

ObjectiveSpec controller_spec() {
  ObjectiveSpec spec;
  spec.privacy_target = 1.0;
  spec.privacy_tol = 0.5;
  spec.period_reports = 4;
  spec.window_pairs = 8;
  spec.min_window_pairs = 2;
  spec.max_step = 0.5;
  spec.eps_min = 1e-4;
  spec.eps_max = 1.0;
  spec.prior_privacy_slope = -1.0;
  return spec;
}

/// Feeds `n` pairs whose protected x is `x`, advancing 60 s per report
/// from `t0`; returns the decisions emitted along the way.
std::vector<ControlDecision> feed(PrivacyController& c, int n, double x, trace::Timestamp t0) {
  std::vector<ControlDecision> out;
  for (int i = 0; i < n; ++i) {
    const trace::Timestamp t = t0 + 60 * i;
    const trace::Event original{t, {0.0, 0.0}};
    const trace::Event protected_event{t, {x, 0.0}};
    if (const auto d = c.on_delivered(original, protected_event)) out.push_back(*d);
  }
  return out;
}

TEST(PrivacyController, DecidesOnThePeriodNotEveryReport) {
  PrivacyController c(controller_spec(), 0.1, std::make_shared<MeanProtectedX>(), nullptr);
  const auto decisions = feed(c, 8, 1.0, 0);
  EXPECT_EQ(decisions.size(), 2u);  // period_n = 4
  EXPECT_EQ(decisions[0].index, 0u);
  EXPECT_EQ(decisions[1].index, 1u);
}

TEST(PrivacyController, HoldsInsideTheDeadband) {
  PrivacyController c(controller_spec(), 0.1, std::make_shared<MeanProtectedX>(), nullptr);
  const auto decisions = feed(c, 4, 1.2, 0);  // |1.2 - 1.0| <= 0.5
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, ControlAction::kHoldInBand);
  EXPECT_TRUE(decisions[0].privacy_in_band);
  EXPECT_DOUBLE_EQ(decisions[0].eps_after, decisions[0].eps_before);
  EXPECT_DOUBLE_EQ(c.epsilon(), 0.1);
  EXPECT_TRUE(c.in_band());
}

TEST(PrivacyController, StepsTowardTheTargetWhenOutOfBand) {
  PrivacyController c(controller_spec(), 0.1, std::make_shared<MeanProtectedX>(), nullptr);
  // Measured 5.0, target 1.0, falling prior slope: the loop must RAISE
  // ε. The inverted demand (ln ε = ln 0.1 + 4) is far above eps_max, so
  // the decision saturates high and the actuator moves one clamped step.
  const auto decisions = feed(c, 4, 5.0, 0);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, ControlAction::kSaturateHigh);
  EXPECT_FALSE(decisions[0].privacy_in_band);
  EXPECT_NEAR(std::log(c.epsilon()), std::log(0.1) + 0.5, 1e-12);
  EXPECT_FALSE(c.in_band());
}

TEST(PrivacyController, StepSizeIsAlwaysClamped) {
  PrivacyController c(controller_spec(), 0.1, std::make_shared<MeanProtectedX>(), nullptr);
  double prev = std::log(c.epsilon());
  for (int round = 0; round < 6; ++round) {
    feed(c, 4, 5.0, 240 * round);
    const double now = std::log(c.epsilon());
    EXPECT_LE(std::abs(now - prev), 0.5 + 1e-12);
    EXPECT_GE(c.epsilon(), 1e-4);
    EXPECT_LE(c.epsilon(), 1.0);
    prev = now;
  }
  // Persistent high demand pins ε at the domain edge, never beyond.
  EXPECT_DOUBLE_EQ(c.epsilon(), 1.0);
}

TEST(PrivacyController, CooldownBlocksBackToBackMoves) {
  ObjectiveSpec spec = controller_spec();
  spec.cooldown_s = 3600;
  PrivacyController c(spec, 0.1, std::make_shared<MeanProtectedX>(), nullptr);
  const auto first = feed(c, 4, 5.0, 0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].action, ControlAction::kSaturateHigh);
  const double eps_after_first = c.epsilon();
  const auto second = feed(c, 4, 5.0, 240);  // still inside the cooldown
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].action, ControlAction::kHoldCooldown);
  EXPECT_DOUBLE_EQ(c.epsilon(), eps_after_first);
}

TEST(PrivacyController, MonitorModeEstimatesButNeverMoves) {
  ObjectiveSpec spec = controller_spec();
  spec.max_step = 0.0;
  PrivacyController c(spec, 0.1, std::make_shared<MeanProtectedX>(), nullptr);
  const auto decisions = feed(c, 8, 5.0, 0);
  ASSERT_EQ(decisions.size(), 2u);
  for (const ControlDecision& d : decisions) {
    EXPECT_EQ(d.action, ControlAction::kHoldFrozen);
    EXPECT_FALSE(d.privacy_in_band);
    EXPECT_NEAR(d.measured_privacy, 5.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(c.epsilon(), 0.1);
}

TEST(PrivacyController, InsufficientWindowHoldsWithoutAnEstimate) {
  ObjectiveSpec spec = controller_spec();
  spec.window_pairs = 32;
  spec.min_window_pairs = 16;  // period fires long before the window fills
  PrivacyController c(spec, 0.1, std::make_shared<MeanProtectedX>(), nullptr);
  const auto decisions = feed(c, 4, 5.0, 0);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, ControlAction::kHoldInsufficient);
  EXPECT_TRUE(std::isnan(decisions[0].measured_privacy));
  EXPECT_FALSE(decisions[0].privacy_in_band);  // "in band" is a checked claim
  EXPECT_DOUBLE_EQ(c.epsilon(), 0.1);
}

TEST(PrivacyController, WindowEvictionBoundsTheEstimate) {
  ObjectiveSpec spec = controller_spec();
  spec.window_pairs = 4;
  spec.period_reports = 8;
  PrivacyController c(spec, 0.1, std::make_shared<MeanProtectedX>(), nullptr);
  // 4 old pairs at x=100 followed by 4 new at x=1: with the window
  // bounded to the last 4 pairs the estimate must see only x=1.
  feed(c, 4, 100.0, 0);
  const auto decisions = feed(c, 4, 1.0, 240);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].window_pairs, 4u);
  EXPECT_NEAR(decisions[0].measured_privacy, 1.0, 1e-12);
  EXPECT_EQ(decisions[0].action, ControlAction::kHoldInBand);
}

TEST(PrivacyController, RejectsNullMetricForEnabledAxis) {
  EXPECT_THROW(PrivacyController(controller_spec(), 0.1, nullptr, nullptr),
               std::invalid_argument);
}

// ------------------------------------------------------------- session

TEST(AdaptiveGeoIndSession, VariableSpendExhaustsTheBudgetWindow) {
  ObjectiveSpec spec = controller_spec();
  spec.max_step = 0.0;  // keep ε fixed so the spend arithmetic is exact
  AdaptiveGeoIndSession session(spec, 0.1, lppm::GeoIndBudget(0.1, 0.3, 3600), 42,
                                std::make_shared<MeanProtectedX>(), nullptr, {});
  std::size_t delivered = 0;
  for (int i = 0; i < 5; ++i) {
    if (session.report({static_cast<trace::Timestamp>(60 * i), {0.0, 0.0}})) ++delivered;
  }
  EXPECT_EQ(delivered, 3u);  // 0.3 budget / 0.1 per report
  EXPECT_EQ(session.suppressed_count(), 2u);
  EXPECT_NEAR(session.budget()->spent(240), 0.3, 1e-12);
}

// ------------------------------------------------------ windowed audit

ProtectedReport delivered_report(const std::string& user, std::uint64_t seq, trace::Timestamp t,
                                 double x) {
  ProtectedReport r;
  r.user_id = user;
  r.seq = seq;
  r.original = {t, {x, 0.0}};
  r.protected_event = trace::Event{t, {x + 1.0, 0.0}};
  r.status = ReportStatus::delivered;
  return r;
}

TEST(AuditWindow, UnboundedWindowMatchesFullStreamAuditor) {
  StreamAuditor full;                             // classic full-stream
  StreamAuditor zero{AuditWindow{}};              // window = ∞ explicitly
  StreamAuditor wide{AuditWindow{1000, 100000}};  // wider than the stream
  for (int u = 0; u < 3; ++u) {
    for (int i = 0; i < 20; ++i) {
      const auto r = delivered_report("user-" + std::to_string(u), i, 60 * i, i * 3.0);
      full.record(r);
      zero.record(r);
      wide.record(r);
    }
  }
  EXPECT_EQ(full.recorded(), 60u);
  EXPECT_EQ(zero.recorded(), 60u);
  EXPECT_EQ(wide.recorded(), 60u);
  const std::vector<std::shared_ptr<const metrics::Metric>> gauges = {
      std::make_shared<MeanProtectedX>()};
  const auto a = full.evaluate(gauges);
  const auto b = zero.evaluate(gauges);
  const auto c = wide.evaluate(gauges);
  ASSERT_EQ(a.size(), 1u);
  // Bit-identical, not approximately equal: same pairs, same order.
  EXPECT_EQ(a[0].value, b[0].value);
  EXPECT_EQ(a[0].value, c[0].value);
  EXPECT_EQ(a[0].name, "mean-protected-x");
}

TEST(AuditWindow, MaxPairsKeepsTheLastKPerUser) {
  StreamAuditor auditor{AuditWindow{3, 0}};
  for (int u = 0; u < 2; ++u) {
    for (int i = 0; i < 10; ++i) {
      auditor.record(delivered_report("user-" + std::to_string(u), i, 60 * i, i * 1.0));
    }
  }
  EXPECT_EQ(auditor.recorded(), 6u);  // 3 per user
  // The retained pairs are the NEWEST ones: x ∈ {7,8,9} → protected
  // mean (x+1) = 9 for both users.
  const auto values =
      auditor.evaluate({std::make_shared<MeanProtectedX>()});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_NEAR(values[0].value, 9.0, 1e-12);
}

TEST(AuditWindow, MaxAgeEvictsByOriginalTimestamp) {
  StreamAuditor auditor{AuditWindow{0, 100}};
  auditor.record(delivered_report("u", 0, 0, 1.0));
  auditor.record(delivered_report("u", 1, 100, 2.0));
  auditor.record(delivered_report("u", 2, 200, 3.0));
  // Newest is 200, cutoff 100: t=0 leaves, t=100 is exactly on the edge
  // and stays.
  EXPECT_EQ(auditor.recorded(), 2u);
  auditor.record(delivered_report("u", 3, 250, 4.0));
  // Newest is 250, cutoff 150: t=100 leaves too.
  EXPECT_EQ(auditor.recorded(), 2u);
}

TEST(AuditWindow, EvictionNeverEmptiesAUser) {
  StreamAuditor auditor{AuditWindow{0, 10}};
  auditor.record(delivered_report("u", 0, 0, 1.0));
  auditor.record(delivered_report("u", 1, 1000, 2.0));  // giant gap
  EXPECT_EQ(auditor.recorded(), 1u);  // only the newest survives
  const auto values = auditor.evaluate({std::make_shared<MeanProtectedX>()});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_NEAR(values[0].value, 3.0, 1e-12);  // protected x of the survivor
}

TEST(AuditWindow, NonDeliveredReportsAreSkipped) {
  StreamAuditor auditor{AuditWindow{8, 0}};
  ProtectedReport suppressed = delivered_report("u", 0, 0, 1.0);
  suppressed.protected_event.reset();
  suppressed.status = ReportStatus::suppressed_budget;
  auditor.record(suppressed);
  EXPECT_EQ(auditor.recorded(), 0u);
}

// ----------------------------------------------------------- determinism

GatewayConfig adaptive_config(std::size_t workers) {
  GatewayConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 1 << 16;  // no backpressure: accept everything
  cfg.sessions.shard_count = 8;
  cfg.epsilon = 0.02;
  cfg.budget_eps = 1000.0;  // budget off the critical path
  cfg.budget_window_s = 3600;
  cfg.seed = 2016;
  ObjectiveSpec spec;
  spec.privacy_target = 0.6;
  spec.privacy_tol = 0.3;
  spec.period_reports = 8;
  spec.window_pairs = 32;
  spec.min_window_pairs = 4;
  spec.max_step = 0.5;
  cfg.objectives = spec;
  return cfg;
}

trace::Dataset drift_workload() {
  synth::DriftingFleetConfig cfg;
  cfg.user_count = 8;
  cfg.phase_a_s = 1800;
  cfg.phase_b_s = 1800;
  return synth::make_drifting_fleet(cfg, 99);
}

/// Replays `data` through an adaptive gateway and returns the canonical
/// control-log dump.
std::string control_log_of(const trace::Dataset& data, const GatewayConfig& cfg) {
  Gateway gateway(cfg, [](const ProtectedReport&) {});
  replay_dataset(data, gateway);
  gateway.drain();
  const ControlLog* log = gateway.control_log();
  EXPECT_NE(log, nullptr);
  return log != nullptr ? log->serialize() : std::string();
}

TEST(AdaptiveDeterminism, ControlLogIsByteIdenticalAcrossWorkerCounts) {
  const trace::Dataset data = drift_workload();
  const std::string one = control_log_of(data, adaptive_config(1));
  const std::string eight = control_log_of(data, adaptive_config(8));
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);  // memcmp-equivalent on std::string bytes
}

TEST(AdaptiveDeterminism, ControlLogIsByteIdenticalWithTracingOnAndOff) {
  const trace::Dataset data = drift_workload();
  const std::string off = control_log_of(data, adaptive_config(4));
  obs::Tracer::instance().enable();
  const std::string on = control_log_of(data, adaptive_config(4));
  obs::Tracer::instance().disable();
  obs::Tracer::instance().reset();
  EXPECT_EQ(off, on);
}

TEST(AdaptiveDeterminism, ControlLogIsByteIdenticalUnderAnActiveFaultPlan) {
  const trace::Dataset data = drift_workload();
  GatewayConfig faulty1 = adaptive_config(1);
  faulty1.faults = parse_fault_spec(
      "fail=0.2,stall_p=0.05,stall_us=200,skew_p=0.1,skew_s=120,burst_p=0.02,burst_len=8");
  faulty1.resilience.sleep_for_real = false;  // stalls decided, not slept
  GatewayConfig faulty8 = faulty1;
  faulty8.workers = 8;
  const std::string one = control_log_of(data, faulty1);
  const std::string eight = control_log_of(data, faulty8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
  // And the chaos must actually change the schedule vs the clean run —
  // otherwise this test proves nothing.
  EXPECT_NE(one, control_log_of(data, adaptive_config(1)));
}

TEST(AdaptiveGateway, ControlsTheFleetAndReportsTelemetry) {
  const trace::Dataset data = drift_workload();
  const GatewayConfig cfg = adaptive_config(4);
  Gateway gateway(cfg, [](const ProtectedReport&) {});
  replay_dataset(data, gateway);
  gateway.drain();
  const ControlLog* log = gateway.control_log();
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->user_count(), data.size());
  EXPECT_GT(log->decision_count(), 0u);
  const io::JsonValue block = log->to_json();
  EXPECT_EQ(block.at("users").as_number(), static_cast<double>(data.size()));
  EXPECT_EQ(block.at("decisions").as_number(), static_cast<double>(log->decision_count()));
  EXPECT_TRUE(block.contains("eps_trajectory"));
  EXPECT_TRUE(block.contains("actions"));
  EXPECT_TRUE(block.contains("users_in_band_final"));
  // One serialize line per decision (the canonical dump's invariant).
  const std::string dump = log->serialize();
  const std::size_t lines = static_cast<std::size_t>(
      std::count(dump.begin(), dump.end(), '\n'));
  EXPECT_EQ(lines, log->decision_count());
}

TEST(AdaptiveGateway, StaticFactoryHasNoControlPlane) {
  GatewayConfig cfg = adaptive_config(1);
  cfg.objectives.reset();
  Gateway gateway(cfg, [](const ProtectedReport&) {});
  EXPECT_EQ(gateway.control_log(), nullptr);
}

}  // namespace
}  // namespace locpriv::service::adaptive
