// The obfuscation gateway: the concurrent serving front end of the
// framework.
//
// An app server pushes raw location reports in with submit(); protected
// (or suppressed) reports come back through a sink callback. Inside:
// a worker pool with per-worker bounded queues (user-hash routed, see
// worker_pool.h), a sharded session manager holding each user's
// StreamSession + ε budget, and a telemetry layer counting every
// outcome. Every submitted report is answered through the sink exactly
// once — delivered, suppressed by budget, or rejected by backpressure.
//
// The default session factory instantiates the paper's deployment mode:
// BudgetedGeoIndSession with the configured ε and sliding-window budget,
// seeded per user with derive_seed(seed, stable_hash64(user)) so any
// replay of the same stream is bit-identical regardless of worker count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/adaptive/objective.h"
#include "service/resilience/resilience.h"
#include "service/session_manager.h"
#include "service/telemetry.h"
#include "service/worker_pool.h"
#include "trace/event.h"

namespace locpriv::service {

namespace adaptive {
class ControlLog;
}  // namespace adaptive

/// The gateway's answer to one submitted report.
struct ProtectedReport {
  std::string user_id;
  std::uint64_t seq = 0;  ///< strictly increasing per user
  trace::Event original;
  std::optional<trace::Event> protected_event;  ///< set iff delivered or
                                                ///< degraded_fallback
  ReportStatus status = ReportStatus::delivered;
  /// Downstream attempts made for this report (0 when the report never
  /// reached the downstream call: suppressed, rejected, or no
  /// downstream configured).
  std::uint32_t downstream_attempts = 0;
  /// The cookie passed to submit(), echoed back verbatim (0 for the
  /// cookie-less overload). See Request::cookie.
  std::uint64_t cookie = 0;
};

struct GatewayConfig {
  std::size_t workers = 4;
  std::size_t queue_capacity = 1024;  ///< per worker
  SessionManagerConfig sessions;

  // Default (Geo-I) session factory parameters.
  double epsilon = 0.01;
  double budget_eps = 0.3;  ///< total ε per sliding window
  trace::Timestamp budget_window_s = 3600;
  std::uint64_t seed = 2016;

  /// Simulated downstream LBS round-trip per delivered report. A real
  /// gateway forwards the protected event to the service and awaits the
  /// answer; this models that wait in benches/simulations. Zero = off.
  std::chrono::microseconds downstream_latency{0};

  /// Fault injection: an all-zero spec (the default) injects nothing.
  /// Every fault decision is a pure function of (faults, fault_seed,
  /// request identity) — see resilience/fault_plan.h.
  FaultSpec faults;
  /// Seed of the fault schedule; 0 derives one from `seed`.
  std::uint64_t fault_seed = 0;
  /// Deadline / retry / breaker / degradation policy of the downstream
  /// call (active whenever faults or downstream_latency are configured).
  ResilienceConfig resilience;

  /// Closed-loop ε control (see service/adaptive/): when set, the
  /// default factory builds AdaptiveGeoIndSessions that steer each
  /// user's ε toward these objectives instead of the static-ε
  /// BudgetedGeoIndSession; `epsilon` becomes the loop's initial value
  /// and every decision is recorded in control_log(). nullopt = the
  /// classic static deployment.
  std::optional<adaptive::ObjectiveSpec> objectives;
};

/// Applies a reload spec — JSON text {"faults": "<spec>", "objectives":
/// "<spec>"} — to `cfg` and returns the result: an absent key keeps the
/// current value, an empty string clears it, and empty text changes
/// nothing. Throws (std::invalid_argument, or the JSON parser's error)
/// on a malformed or invalid spec. Every reload path (a shard's kReload,
/// the supervisor's kReload and SIGHUP) goes through this one parser.
[[nodiscard]] GatewayConfig apply_reload_spec(GatewayConfig cfg, const std::string& spec_json);

/// Deterministic per-user session seed used by the default factory.
[[nodiscard]] std::uint64_t user_seed(std::uint64_t root_seed, std::string_view user_id);

class Gateway {
 public:
  /// Receives every answer. Called from worker threads (and from the
  /// submitting thread for backpressure rejections) — must be
  /// thread-safe. Calls for one user never overlap and arrive in
  /// submission order.
  using Sink = std::function<void(const ProtectedReport&)>;

  /// Gateway with the default budgeted Geo-I session per user.
  Gateway(const GatewayConfig& cfg, Sink sink);
  /// Gateway with a custom per-user session factory (any streaming LPPM).
  Gateway(const GatewayConfig& cfg, SessionManager::SessionFactory factory, Sink sink);

  /// Drains remaining accepted requests, then stops the workers.
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Submits one report. Never blocks: when the user's worker queue is
  /// full the report is answered immediately (from this thread) with
  /// rejected_queue_full and false is returned. True = accepted; the
  /// answer will arrive through the sink. `cookie` is an opaque caller
  /// correlator echoed back on the answer (ProtectedReport::cookie).
  bool submit(const std::string& user_id, const trace::Event& event, std::uint64_t cookie = 0);

  /// Processes everything accepted so far and stops the workers.
  /// submit() refuses afterwards. Idempotent.
  void drain();

  /// Hot-reloads policy without dropping session state: drains the
  /// worker pool, swaps in `next`'s factory parameters, objectives,
  /// fault schedule and resilience policy, then rebuilds breakers and
  /// workers. The SessionManager survives — live sessions keep their ε
  /// budgets and their old policy until evicted; only sessions created
  /// after the reload see the new one (`next.sessions` is ignored for
  /// the same reason). Not thread-safe against submit(): the caller
  /// stops submitting, reloads, then resumes — the shard server's event
  /// loop gives this for free. Throws std::invalid_argument when `next`
  /// fails validation, leaving the gateway drained but consistent.
  void reload(const GatewayConfig& next);

  [[nodiscard]] const Telemetry& telemetry() const { return *telemetry_; }
  [[nodiscard]] std::size_t active_sessions() const { return sessions_->session_count(); }
  /// The active fault schedule; nullptr when no faults are configured.
  [[nodiscard]] const FaultPlan* fault_plan() const { return plan_.get(); }
  /// Every control decision made so far; nullptr when `objectives` is
  /// unset (static deployment has no control plane).
  [[nodiscard]] const adaptive::ControlLog* control_log() const { return control_log_.get(); }

 private:
  void handle(std::size_t worker, const Request& r);
  /// (Re)builds what cfg_ fixes per run: the fault plan, one breaker
  /// per worker, and the worker pool.
  void start_workers();

  GatewayConfig cfg_;
  Sink sink_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<adaptive::ControlLog> control_log_;  ///< null = static ε
  std::unique_ptr<SessionManager> sessions_;
  std::unique_ptr<FaultPlan> plan_;  ///< null = no injection
  std::vector<CircuitBreaker> breakers_;  ///< one per worker; worker-local
  std::unique_ptr<WorkerPool> pool_;  ///< last member: workers die first
  std::atomic<std::uint64_t> next_seq_{0};
};

}  // namespace locpriv::service
