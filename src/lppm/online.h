// Online (streaming) protection — the LBS deployment mode.
//
// Offline, a Mechanism transforms a complete trace; online, an app must
// protect each location report the moment the user makes a request. A
// StreamSession is the stateful per-user object that does so. Mechanisms
// that act per event (Geo-I, Gaussian, grid/temporal cloaking, dropout,
// noop) stream exactly; trajectory-level mechanisms (Promesse) cannot,
// and asking for a session throws rather than silently degrading.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lppm/mechanism.h"
#include "stats/rng.h"
#include "trace/event.h"

namespace locpriv::lppm {

class GeoIndBudget;

/// A per-user protection stream. Not thread-safe: one session per user
/// stream, as in a real app.
class StreamSession {
 public:
  virtual ~StreamSession() = default;

  /// Protects one report. nullopt means the report is suppressed (not
  /// sent to the service at all) — dropout and budget exhaustion do this.
  [[nodiscard]] virtual std::optional<trace::Event> report(const trace::Event& e) = 0;

  /// The ε ledger this session spends from; nullptr when it has none.
  [[nodiscard]] virtual const GeoIndBudget* budget() const { return nullptr; }
};

/// Creates a streaming session for `mechanism` with its current
/// parameters. Deterministic in `seed`. Throws std::invalid_argument for
/// mechanisms without a streaming semantics (currently "promesse").
[[nodiscard]] std::unique_ptr<StreamSession> make_stream_session(const Mechanism& mechanism,
                                                                 std::uint64_t seed);

/// ε-budget accounting for streaming Geo-Indistinguishability.
///
/// Differential-privacy guarantees compose: n reports at ε each cost
/// n·ε within any adversary view. The tracker enforces a total budget
/// over a sliding time window — when the window's spend would exceed the
/// budget, the report must be withheld (or the app must degrade to a
/// cached location).
class GeoIndBudget {
 public:
  /// `eps_per_report` > 0, `budget` > 0, `window_s` > 0.
  GeoIndBudget(double eps_per_report, double budget, trace::Timestamp window_s);

  /// ε already spent inside the window ending at `now`. Summed in
  /// arrival order, so the value is deterministic across replays.
  [[nodiscard]] double spent(trace::Timestamp now) const;
  /// True when one more report fits the budget at time `now`.
  [[nodiscard]] bool can_consume(trace::Timestamp now) const;
  /// Records a report at `now` if it fits; returns whether it did.
  bool try_consume(trace::Timestamp now);

  // Variable-spend overloads for adaptive sessions whose per-report ε
  // changes over time (service/adaptive). The interaction is monotone:
  // raising ε only drains the window faster, so a controller that steps
  // ε up can trade report availability for accuracy but can never mint
  // budget — the window invariant spent(now) <= budget always holds.
  /// True when a report costing `eps` fits the budget at time `now`.
  [[nodiscard]] bool can_consume(trace::Timestamp now, double eps) const;
  /// Records a report costing `eps` at `now` if it fits. `eps` > 0.
  bool try_consume(trace::Timestamp now, double eps);

  [[nodiscard]] double budget() const { return budget_; }
  [[nodiscard]] double eps_per_report() const { return eps_per_report_; }

 private:
  struct Spend {
    trace::Timestamp time;
    double eps;
  };

  void evict(trace::Timestamp now) const;

  double eps_per_report_;
  double budget_;
  trace::Timestamp window_s_;
  mutable std::vector<Spend> consumed_;  ///< report spends, time-sorted
};

/// Streaming Geo-I with budget enforcement: perturbs while budget lasts,
/// suppresses afterwards. The workhorse of the streaming example.
class BudgetedGeoIndSession final : public StreamSession {
 public:
  BudgetedGeoIndSession(double epsilon, GeoIndBudget budget, std::uint64_t seed);

  [[nodiscard]] std::optional<trace::Event> report(const trace::Event& e) override;

  [[nodiscard]] const GeoIndBudget* budget() const override { return &budget_; }
  [[nodiscard]] std::size_t suppressed_count() const { return suppressed_; }

 private:
  double epsilon_;
  GeoIndBudget budget_;
  stats::Rng rng_;
  std::size_t suppressed_ = 0;
};

}  // namespace locpriv::lppm
