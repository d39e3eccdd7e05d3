#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "service/gateway.h"
#include "service/load_driver.h"
#include "service/session_manager.h"
#include "test_util.h"

namespace locpriv::service {
namespace {

using testutil::Capture;

GatewayConfig small_config() {
  GatewayConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1 << 14;
  cfg.sessions.shard_count = 1;
  cfg.epsilon = 0.05;
  cfg.budget_eps = 0.5;  // 10 reports per window
  cfg.budget_window_s = 1800;
  cfg.seed = 77;
  return cfg;
}

/// The ground truth the gateway must reproduce: each user's trace fed
/// one-by-one through its own BudgetedGeoIndSession, exactly as
/// examples/streaming_lbs.cpp did before the gateway existed.
std::map<std::string, std::vector<trace::Event>> sequential_replay(const trace::Dataset& data,
                                                                   const GatewayConfig& cfg) {
  std::map<std::string, std::vector<trace::Event>> out;
  for (const trace::Trace& t : data) {
    lppm::BudgetedGeoIndSession session(
        cfg.epsilon, lppm::GeoIndBudget(cfg.epsilon, cfg.budget_eps, cfg.budget_window_s),
        user_seed(cfg.seed, t.user_id()));
    auto& events = out[t.user_id()];
    for (const trace::Event& e : t) {
      if (const auto p = session.report(e)) events.push_back(*p);
    }
  }
  return out;
}

std::map<std::string, std::vector<trace::Event>> delivered_by_user(Capture& capture) {
  std::map<std::string, std::vector<trace::Event>> out;
  for (const auto& [user, reports] : capture.by_user) {
    for (const ProtectedReport& r : reports) {
      if (r.status == ReportStatus::delivered) out[user].push_back(*r.protected_event);
    }
  }
  return out;
}

TEST(Gateway, OneWorkerOneShardEqualsSequentialReplay) {
  const trace::Dataset data = testutil::two_stop_dataset(6);
  const GatewayConfig cfg = small_config();
  Capture capture;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
  }
  EXPECT_EQ(delivered_by_user(capture), sequential_replay(data, cfg));
}

TEST(Gateway, ManyWorkersManyShardsStillEqualSequentialReplayPerUser) {
  // Per-user hash routing + per-user seeds make the gateway's output
  // independent of concurrency, not just "correct up to reordering".
  const trace::Dataset data = testutil::two_stop_dataset(12);
  GatewayConfig cfg = small_config();
  cfg.workers = 8;
  cfg.sessions.shard_count = 16;
  Capture capture;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
  }
  EXPECT_EQ(delivered_by_user(capture), sequential_replay(data, cfg));
}

TEST(Gateway, EveryReportAnsweredExactlyOnceEvenUnderBackpressure) {
  const trace::Dataset data = testutil::two_stop_dataset(8);
  GatewayConfig cfg = small_config();
  cfg.workers = 2;
  cfg.queue_capacity = 4;  // tiny queues: force rejections
  cfg.downstream_latency = std::chrono::microseconds(200);  // slow workers down
  Capture capture;
  LoadResult load;
  TelemetrySnapshot snap;
  {
    Gateway gateway(cfg, capture.sink());
    load = replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  EXPECT_EQ(load.submitted, data.total_events());
  EXPECT_EQ(capture.total, load.submitted) << "some report was dropped or answered twice";
  EXPECT_GT(snap[Count::rejected_queue_full], 0u) << "tiny queue + slow workers must reject";
  EXPECT_EQ(load.accepted + snap[Count::rejected_queue_full], load.submitted);
  EXPECT_EQ(snap[Count::received], load.submitted);
  EXPECT_EQ(
      snap[Count::delivered] + snap[Count::suppressed_budget] + snap[Count::rejected_queue_full],
      snap[Count::received]);
}

TEST(Gateway, PerUserOrderPreservedUnderManyWorkers) {
  const trace::Dataset data = testutil::two_stop_dataset(10);
  GatewayConfig cfg = small_config();
  cfg.workers = 8;
  cfg.sessions.shard_count = 4;
  Capture capture;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
  }
  for (const auto& [user, reports] : capture.by_user) {
    for (std::size_t i = 1; i < reports.size(); ++i) {
      EXPECT_LT(reports[i - 1].seq, reports[i].seq)
          << "user " << user << " answered out of submission order";
      EXPECT_LE(reports[i - 1].original.time, reports[i].original.time);
    }
  }
}

TEST(Gateway, BudgetNeverOverspentUnderManyWorkers) {
  const trace::Dataset data = testutil::two_stop_dataset(10);
  GatewayConfig cfg = small_config();
  cfg.workers = 8;
  cfg.sessions.shard_count = 4;
  Capture capture;
  TelemetrySnapshot snap;
  {
    Gateway gateway(cfg, capture.sink());
    replay_dataset(data, gateway);
    snap = gateway.telemetry().snapshot();
  }
  // Reports arrive every 60 s, the window fits 10: suppression must occur.
  EXPECT_GT(snap[Count::suppressed_budget], 0u);
  for (const auto& [user, events] : delivered_by_user(capture)) {
    // Sliding-window check over the delivered timestamps: within any
    // window ending at a delivery, spend stays within the budget.
    std::vector<trace::Timestamp> times;
    for (const trace::Event& e : events) times.push_back(e.time);
    for (std::size_t i = 0; i < times.size(); ++i) {
      const trace::Timestamp window_start = times[i] - cfg.budget_window_s;
      const auto begin = std::upper_bound(times.begin(), times.begin() + i + 1, window_start);
      const auto in_window = static_cast<double>((times.begin() + i + 1) - begin);
      EXPECT_LE(in_window * cfg.epsilon, cfg.budget_eps + 1e-9)
          << "user " << user << " overspent at t=" << times[i];
    }
  }
  // Telemetry saw the same invariant.
  EXPECT_LE(snap.eps_max_seen, cfg.budget_eps + 1e-9);
}

TEST(Gateway, TelemetryJsonHasStableSchema) {
  const trace::Dataset data = testutil::two_stop_dataset(3);
  io::JsonValue json;
  TelemetrySnapshot snap;
  {
    Gateway gateway(small_config(), [](const ProtectedReport&) {});
    replay_dataset(data, gateway);
    gateway.drain();
    json = gateway.telemetry().to_json();
    snap = gateway.telemetry().snapshot();
  }
  ASSERT_TRUE(json.is_object());
  const io::JsonValue& counters = json.at("counters");
  EXPECT_EQ(counters.at("received").as_number(), static_cast<double>(data.total_events()));
  // Every counter is listed under its block(s) with its snapshot value.
  for (const CountSpec& spec : kCountTable) {
    SCOPED_TRACE(spec.name);
    const double value = static_cast<double>(snap[spec.count]);
    const bool in_counters = spec.block != Block::resilience;
    const bool in_resilience = spec.block != Block::counters;
    EXPECT_EQ(counters.contains(spec.name), in_counters);
    EXPECT_EQ(json.at("resilience").contains(spec.name), in_resilience);
    if (in_counters) {
      EXPECT_EQ(counters.at(spec.name).as_number(), value);
    }
    if (in_resilience) {
      EXPECT_EQ(json.at("resilience").at(spec.name).as_number(), value);
    }
  }
  EXPECT_GT(snap[Count::sessions_created], 0u);
  // The latency histogram samples every answer a worker gave.
  EXPECT_EQ(json.at("latency").at("count").as_number(),
            static_cast<double>(snap[Count::delivered] + snap[Count::suppressed_budget]));
  EXPECT_TRUE(json.at("latency").contains("p99_us"));
  EXPECT_TRUE(json.at("eps_spend").contains("max_seen"));
  // Round-trips through the writer/parser.
  EXPECT_NO_THROW((void)io::parse_json(io::to_json(json)));
}

TEST(SessionManager, LazyCreationAndCounting) {
  Telemetry telemetry;
  int created = 0;
  SessionManagerConfig cfg;
  cfg.shard_count = 4;
  SessionManager manager(
      cfg,
      [&](const std::string&) {
        ++created;
        return std::make_unique<lppm::BudgetedGeoIndSession>(
            0.1, lppm::GeoIndBudget(0.1, 1.0, 600), 1);
      },
      &telemetry);
  EXPECT_EQ(manager.session_count(), 0u);
  (void)manager.acquire("a", 0);
  (void)manager.acquire("b", 0);
  (void)manager.acquire("a", 60);  // reuse, no new session
  EXPECT_EQ(created, 2);
  EXPECT_EQ(manager.session_count(), 2u);
  EXPECT_EQ(telemetry.snapshot()[Count::sessions_created], 2u);
}

TEST(SessionManager, LruEvictionBeyondCapacity) {
  Telemetry telemetry;
  SessionManagerConfig cfg;
  cfg.shard_count = 1;
  cfg.max_sessions_per_shard = 2;
  SessionManager manager(
      cfg, [](const std::string&) { return std::make_unique<lppm::BudgetedGeoIndSession>(
                                        0.1, lppm::GeoIndBudget(0.1, 1.0, 600), 1); },
      &telemetry);
  (void)manager.acquire("a", 0);
  (void)manager.acquire("b", 1);
  (void)manager.acquire("a", 2);  // a is now most recent; b is the LRU
  (void)manager.acquire("c", 3);  // pushes the shard over capacity
  EXPECT_EQ(manager.session_count(), 2u);
  EXPECT_EQ(telemetry.snapshot()[Count::sessions_evicted_lru], 1u);
  // b (the least recently used) was the victim: touching it re-creates.
  const auto before = telemetry.snapshot()[Count::sessions_created];
  (void)manager.acquire("a", 4);
  EXPECT_EQ(telemetry.snapshot()[Count::sessions_created], before);
  (void)manager.acquire("b", 5);
  EXPECT_EQ(telemetry.snapshot()[Count::sessions_created], before + 1);
}

TEST(SessionManager, IdleEvictionUsesStreamTime) {
  Telemetry telemetry;
  SessionManagerConfig cfg;
  cfg.shard_count = 1;
  cfg.idle_timeout_s = 100;
  SessionManager manager(
      cfg, [](const std::string&) { return std::make_unique<lppm::BudgetedGeoIndSession>(
                                        0.1, lppm::GeoIndBudget(0.1, 1.0, 600), 1); },
      &telemetry);
  (void)manager.acquire("a", 0);
  (void)manager.acquire("b", 50);
  EXPECT_EQ(manager.session_count(), 2u);
  // At t=99 nobody is 100 s idle yet; by t=300 both a and b are due.
  (void)manager.acquire("b", 99);
  EXPECT_EQ(manager.session_count(), 2u);
  (void)manager.acquire("c", 300);
  EXPECT_EQ(manager.session_count(), 1u);  // a and b evicted, c created
  EXPECT_EQ(telemetry.snapshot()[Count::sessions_evicted_idle], 2u);
}

TEST(SessionManager, IdleEvictionIsExactAtInt64Edges) {
  constexpr trace::Timestamp kMax = std::numeric_limits<trace::Timestamp>::max();
  const auto factory = [](const std::string&) {
    return std::make_unique<lppm::BudgetedGeoIndSession>(0.1, lppm::GeoIndBudget(0.1, 1.0, 600),
                                                         1);
  };
  {
    // Report times near the top of the range: last_active + timeout
    // does not fit a Timestamp.
    Telemetry telemetry;
    SessionManagerConfig cfg;
    cfg.shard_count = 1;
    cfg.idle_timeout_s = 3600;
    SessionManager manager(cfg, factory, &telemetry);
    (void)manager.acquire("a", kMax - 3600);
    (void)manager.acquire("b", kMax - 1);  // a is 3599 s idle: kept
    EXPECT_EQ(manager.session_count(), 2u);
    (void)manager.acquire("b", kMax);  // a is exactly 3600 s idle: due
    EXPECT_EQ(manager.session_count(), 1u);
    EXPECT_EQ(telemetry.snapshot()[Count::sessions_evicted_idle], 1u);
  }
  {
    // The largest timeout: only a full int64 span of idleness is due.
    Telemetry telemetry;
    SessionManagerConfig cfg;
    cfg.shard_count = 1;
    cfg.idle_timeout_s = kMax;
    SessionManager manager(cfg, factory, &telemetry);
    (void)manager.acquire("a", 0);
    (void)manager.acquire("b", kMax - 1);
    EXPECT_EQ(manager.session_count(), 2u);
    (void)manager.acquire("c", kMax);
    EXPECT_EQ(manager.session_count(), 2u);  // a evicted, c created
    EXPECT_EQ(telemetry.snapshot()[Count::sessions_evicted_idle], 1u);
  }
}

TEST(Gateway, CustomFactoryRunsAnyStreamingMechanism) {
  // A gateway is not married to Geo-I: hand it grid-cloaking sessions.
  GatewayConfig cfg = small_config();
  Capture capture;
  {
    Gateway gateway(
        cfg,
        [](const std::string&) {
          struct SnapSession final : lppm::StreamSession {
            std::optional<trace::Event> report(const trace::Event& e) override {
              return trace::Event{e.time, {std::round(e.location.x / 500.0) * 500.0,
                                           std::round(e.location.y / 500.0) * 500.0}};
            }
          };
          return std::make_unique<SnapSession>();
        },
        capture.sink());
    ASSERT_TRUE(gateway.submit("u0", {0, {760.0, 220.0}}));
    gateway.drain();
  }
  ASSERT_EQ(capture.total, 1u);
  const ProtectedReport& r = capture.by_user.at("u0").front();
  ASSERT_EQ(r.status, ReportStatus::delivered);
  EXPECT_EQ(r.protected_event->location, (geo::Point{1000.0, 0.0}));
}

TEST(Gateway, SubmitAfterDrainIsRejectedNotLost) {
  Capture capture;
  Gateway gateway(small_config(), capture.sink());
  ASSERT_TRUE(gateway.submit("u", {0, {0, 0}}));
  gateway.drain();
  EXPECT_FALSE(gateway.submit("u", {60, {0, 0}}));
  EXPECT_EQ(capture.total, 2u);  // one delivered, one rejected — both answered
  EXPECT_EQ(capture.by_user.at("u").back().status, ReportStatus::rejected_queue_full);
}

}  // namespace
}  // namespace locpriv::service
