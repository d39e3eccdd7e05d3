#include "service/gateway.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>

#include "io/json.h"
#include "lppm/grid_cloaking.h"
#include "metrics/registry.h"
#include "obs/tracer.h"
#include "service/adaptive/control_log.h"
#include "service/adaptive/session.h"
#include "stats/rng.h"

namespace locpriv::service {

std::uint64_t user_seed(std::uint64_t root_seed, std::string_view user_id) {
  return stats::derive_seed(root_seed, stable_hash64(user_id));
}

namespace {

// Stream tag separating the fault-schedule seed space from the noise
// seed space when fault_seed is derived from the root seed.
constexpr std::uint64_t kFaultSeedStream = 0xFA177ULL;

SessionManager::SessionFactory static_factory(const GatewayConfig& cfg) {
  const double epsilon = cfg.epsilon;
  const double budget_eps = cfg.budget_eps;
  const trace::Timestamp window = cfg.budget_window_s;
  const std::uint64_t seed = cfg.seed;
  return [epsilon, budget_eps, window, seed](const std::string& user_id) {
    return std::make_unique<lppm::BudgetedGeoIndSession>(
        epsilon, lppm::GeoIndBudget(epsilon, budget_eps, window), user_seed(seed, user_id));
  };
}

// Closed-loop factory: one AdaptiveGeoIndSession per user, sharing the
// axis metrics (stateless evaluators, safe across threads) and feeding
// decisions into the gateway's control log. The metrics are resolved
// once here so an unknown metric name fails at construction, not on the
// first report.
SessionManager::SessionFactory adaptive_factory(const GatewayConfig& cfg,
                                                adaptive::ControlLog* log) {
  const adaptive::ObjectiveSpec spec = *cfg.objectives;
  spec.validate();
  std::shared_ptr<const metrics::Metric> privacy;
  std::shared_ptr<const metrics::Metric> utility;
  if (spec.privacy_on()) privacy = metrics::create_metric(spec.privacy_metric);
  if (spec.utility_on()) utility = metrics::create_metric(spec.utility_metric);
  const double epsilon = cfg.epsilon;
  const double budget_eps = cfg.budget_eps;
  const trace::Timestamp window = cfg.budget_window_s;
  const std::uint64_t seed = cfg.seed;
  return [spec, privacy, utility, epsilon, budget_eps, window, seed,
          log](const std::string& user_id) {
    return std::make_unique<adaptive::AdaptiveGeoIndSession>(
        spec, epsilon, lppm::GeoIndBudget(epsilon, budget_eps, window), user_seed(seed, user_id),
        privacy, utility, [log, user_id](const adaptive::ControlDecision& d) {
          log->record(user_id, d);
        });
  };
}

// The configured default: static budgeted Geo-I, or the closed loop
// when objectives are set.
SessionManager::SessionFactory default_factory(const GatewayConfig& cfg,
                                               adaptive::ControlLog* log) {
  return cfg.objectives.has_value() ? adaptive_factory(cfg, log) : static_factory(cfg);
}

// Worker stalls sleep for real (when enabled) but never beyond a cap, so
// a hostile spec cannot wedge a worker.
void stall_sleep(bool enabled, std::uint32_t us) {
  if (!enabled || us == 0) return;
  std::this_thread::sleep_for(std::min(std::chrono::microseconds(us),
                                       std::chrono::microseconds(20'000)));
}

}  // namespace

GatewayConfig apply_reload_spec(GatewayConfig cfg, const std::string& spec_json) {
  if (spec_json.empty()) return cfg;
  const io::JsonValue spec = io::parse_json(spec_json);
  if (spec.contains("faults")) {
    const std::string& faults = spec.at("faults").as_string();
    cfg.faults = faults.empty() ? FaultSpec{} : parse_fault_spec(faults);
  }
  if (spec.contains("objectives")) {
    const std::string& objectives = spec.at("objectives").as_string();
    if (objectives.empty()) {
      cfg.objectives.reset();
    } else {
      cfg.objectives = adaptive::parse_objective_spec(objectives);
      // Building the closed-loop factory validates the spec and resolves
      // its metric names: a reload naming an unknown metric is refused
      // here, not thrown out of Gateway::reload inside a shard.
      (void)adaptive_factory(cfg, nullptr);
    }
  }
  return cfg;
}

Gateway::Gateway(const GatewayConfig& cfg, Sink sink)
    : Gateway(cfg, SessionManager::SessionFactory{}, std::move(sink)) {}

Gateway::Gateway(const GatewayConfig& cfg, SessionManager::SessionFactory factory, Sink sink)
    : cfg_(cfg), sink_(std::move(sink)) {
  if (!sink_) throw std::invalid_argument("Gateway: sink must be callable");
  cfg_.resilience.validate();
  // ε histogram sized to the budget: spend can never legitimately
  // exceed it, so overflow in the ε histogram would itself be a bug
  // signal.
  telemetry_ = std::make_unique<Telemetry>(cfg.budget_eps * 1.05);
  if (cfg_.objectives.has_value()) control_log_ = std::make_unique<adaptive::ControlLog>();
  // An empty factory means the configured default. A caller-supplied
  // factory always wins (objectives then only allocate the — unused —
  // control log).
  if (!factory) factory = default_factory(cfg_, control_log_.get());
  sessions_ = std::make_unique<SessionManager>(cfg.sessions, std::move(factory), telemetry_.get());
  start_workers();
}

void Gateway::start_workers() {
  plan_.reset();
  if (cfg_.faults.any()) {
    const std::uint64_t fault_seed =
        cfg_.fault_seed != 0 ? cfg_.fault_seed : stats::derive_seed(cfg_.seed, kFaultSeedStream);
    plan_ = std::make_unique<FaultPlan>(cfg_.faults, fault_seed);
  }
  breakers_.assign(cfg_.workers, CircuitBreaker(cfg_.resilience.breaker));
  pool_ = std::make_unique<WorkerPool>(
      cfg_.workers, cfg_.queue_capacity,
      [this](std::size_t worker, const Request& r) { handle(worker, r); });
}

Gateway::~Gateway() { drain(); }

bool Gateway::submit(const std::string& user_id, const trace::Event& event, std::uint64_t cookie) {
  obs::Span submit_span("service", "gateway.submit");
  telemetry_->add(Count::received);
  Request r;
  r.user_id = user_id;
  r.event = event;
  r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  r.cookie = cookie;
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled()) r.enqueue_ns = tracer.now_ns();

  // Injected queue-overflow burst: a deterministic (seq-scheduled)
  // rejection exercising the same degradation path a real overflow
  // takes, without depending on queue timing.
  const bool burst = plan_ != nullptr && plan_->burst_reject(r.seq);
  if (burst) telemetry_->add(Count::injected_burst_rejects);
  if (!burst && pool_->submit(std::move(r))) return true;

  // Backpressure: degrade gracefully by answering with a suppression
  // right here instead of queueing without bound.
  telemetry_->add(Count::rejected_queue_full);
  ProtectedReport out;
  out.user_id = user_id;
  out.seq = r.seq;
  out.original = event;
  out.status = ReportStatus::rejected_queue_full;
  out.cookie = cookie;
  sink_(out);
  return false;
}

void Gateway::drain() { pool_->drain(); }

void Gateway::reload(const GatewayConfig& next, SessionManager::SessionFactory factory) {
  pool_->drain();

  GatewayConfig cfg = next;
  cfg.sessions = cfg_.sessions;  // the live SessionManager keeps its config
  cfg.resilience.validate();
  // Build the factory before committing anything: an invalid
  // ObjectiveSpec throws here and the old configuration stays in force
  // (workers are down either way; the caller decides whether to retry
  // or tear the gateway down).
  std::unique_ptr<adaptive::ControlLog> control_log;
  if (cfg.objectives.has_value() && control_log_ == nullptr) {
    control_log = std::make_unique<adaptive::ControlLog>();
  }
  adaptive::ControlLog* log = control_log_ != nullptr ? control_log_.get() : control_log.get();
  if (!factory) factory = default_factory(cfg, log);

  cfg_ = cfg;
  if (control_log != nullptr) control_log_ = std::move(control_log);
  sessions_->set_factory(std::move(factory));
  start_workers();
}

void Gateway::handle(std::size_t worker, const Request& r) {
  obs::Span handle_span("service", "worker.handle");
  handle_span.arg("worker", static_cast<double>(worker)).arg("seq", static_cast<double>(r.seq));
  if (r.enqueue_ns != 0) {
    // Queue-wait attribution: time between gateway submit and this
    // worker picking the request up.
    const std::uint64_t now = obs::Tracer::instance().now_ns();
    const std::uint64_t wait = now > r.enqueue_ns ? now - r.enqueue_ns : 0;
    handle_span.arg("queue_wait_us", static_cast<double>(wait) / 1e3);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t uhash = stable_hash64(r.user_id);

  // Injected worker stall and client clock skew. The skewed timestamp
  // *is* the report's timestamp from here on — a client with a wrong
  // clock stamps its reports with it — so budget accounting, idle
  // eviction and the output event all see the skewed value.
  trace::Event event = r.event;
  if (plan_ != nullptr) {
    if (const std::uint32_t stall = plan_->stall_us(uhash, r.seq); stall > 0) {
      telemetry_->add(Count::worker_stalls);
      stall_sleep(cfg_.resilience.sleep_for_real, stall);
    }
    if (const trace::Timestamp skew = plan_->clock_skew_s(uhash, r.seq); skew != 0) {
      telemetry_->add(Count::clock_skews);
      event.time = std::max<trace::Timestamp>(0, event.time + skew);
    }
  }

  std::optional<trace::Event> protected_event;
  double eps_spent = std::numeric_limits<double>::quiet_NaN();
  {
    obs::Span session_span("service", "session.report");
    SessionManager::LockedSession locked = sessions_->acquire(r.user_id, event.time);
    // A backwards clock — injected skew here, a genuinely dirty client in
    // production — is clamped to the user's previous report time by the
    // session manager: budget accounting requires monotone time, and a
    // bad timestamp must degrade, not kill the worker.
    if (locked.time_clamped()) {
      telemetry_->add(Count::timestamps_clamped);
      event.time = locked.monotonic_time();
    }
    protected_event = locked.session().report(event);
    if (protected_event.has_value()) {
      if (const lppm::GeoIndBudget* budget = locked.session().budget(); budget != nullptr) {
        eps_spent = budget->spent(event.time);
      }
    }
  }

  ReportStatus status =
      protected_event.has_value() ? ReportStatus::delivered : ReportStatus::suppressed_budget;
  std::uint32_t attempts = 0;
  const bool downstream_active = plan_ != nullptr || cfg_.downstream_latency.count() > 0;
  if (protected_event.has_value() && downstream_active) {
    obs::Span downstream_span("service", "downstream.call");
    const DownstreamCallResult call = resilient_downstream_call(
        cfg_.resilience, plan_.get(), &breakers_[worker], telemetry_.get(), uhash, r.seq,
        event.time, cfg_.downstream_latency);
    downstream_span.arg("attempts", static_cast<double>(call.attempts))
        .arg("ok", call.ok ? 1.0 : 0.0);
    attempts = call.attempts;
    if (!call.ok) {
      if (cfg_.resilience.policy == DegradePolicy::fallback_cloak) {
        // Answer with a coarse grid-cloaked point instead of dropping.
        // The cloak is applied to the *protected* location: the answer
        // stays a post-processing of the ε-geo-indistinguishable output.
        protected_event->location =
            lppm::cloak_point(protected_event->location, cfg_.resilience.fallback_cell_m);
        status = ReportStatus::degraded_fallback;
      } else {
        protected_event.reset();
        status = ReportStatus::degraded_suppressed;
      }
    }
  }

  const auto t1 = std::chrono::steady_clock::now();
  const double latency_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(t1 - t0).count();

  telemetry_->record_answer(status, latency_us, eps_spent);

  ProtectedReport out;
  out.user_id = r.user_id;
  out.seq = r.seq;
  out.original = r.event;
  out.protected_event = protected_event;
  out.status = status;
  out.downstream_attempts = attempts;
  out.cookie = r.cookie;
  sink_(out);
}

}  // namespace locpriv::service
