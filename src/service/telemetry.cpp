#include "service/telemetry.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

namespace locpriv::service {
namespace {

constexpr double kLatencyHiUs = 50'000.0;
constexpr double kBackoffHiUs = 20'000.0;
constexpr std::size_t kLatencyBins = 2048;
constexpr std::size_t kEpsBins = 256;
constexpr std::size_t kBackoffBins = 512;

}  // namespace

Telemetry::Telemetry(double eps_hi)
    : latency_us_(0.0, kLatencyHiUs, kLatencyBins),
      eps_spend_(0.0, eps_hi, kEpsBins),
      backoff_us_(0.0, kBackoffHiUs, kBackoffBins) {}

void Telemetry::record_delivered(double latency_us, double eps_spent_window) {
  delivered_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(latency_mutex_);
    latency_us_.add(latency_us);
  }
  if (!std::isnan(eps_spent_window)) {
    std::lock_guard lock(eps_mutex_);
    eps_spend_.add(eps_spent_window);
    if (eps_spent_window > eps_max_seen_) eps_max_seen_ = eps_spent_window;
  }
}

void Telemetry::record_suppressed(double latency_us) {
  suppressed_budget_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(latency_mutex_);
  latency_us_.add(latency_us);
}

void Telemetry::record_retry(double backoff_us) {
  downstream_retries_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(backoff_mutex_);
  backoff_us_.add(backoff_us);
}

void Telemetry::record_degraded_suppressed(double latency_us) {
  degraded_suppressed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(latency_mutex_);
  latency_us_.add(latency_us);
}

void Telemetry::record_degraded_fallback(double latency_us, double eps_spent_window) {
  degraded_fallback_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(latency_mutex_);
    latency_us_.add(latency_us);
  }
  if (!std::isnan(eps_spent_window)) {
    std::lock_guard lock(eps_mutex_);
    eps_spend_.add(eps_spent_window);
    if (eps_spent_window > eps_max_seen_) eps_max_seen_ = eps_spent_window;
  }
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot s;
  s.received = received_.load(std::memory_order_relaxed);
  s.delivered = delivered_.load(std::memory_order_relaxed);
  s.suppressed_budget = suppressed_budget_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.sessions_created = sessions_created_.load(std::memory_order_relaxed);
  s.sessions_evicted_idle = evicted_idle_.load(std::memory_order_relaxed);
  s.sessions_evicted_lru = evicted_lru_.load(std::memory_order_relaxed);
  s.downstream_attempts = downstream_attempts_.load(std::memory_order_relaxed);
  s.downstream_failures = downstream_failures_.load(std::memory_order_relaxed);
  s.downstream_retries = downstream_retries_.load(std::memory_order_relaxed);
  s.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  s.breaker_short_circuits = breaker_short_circuits_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.degraded_suppressed = degraded_suppressed_.load(std::memory_order_relaxed);
  s.degraded_fallback = degraded_fallback_.load(std::memory_order_relaxed);
  s.injected_burst_rejects = injected_burst_rejects_.load(std::memory_order_relaxed);
  s.worker_stalls = worker_stalls_.load(std::memory_order_relaxed);
  s.clock_skews = clock_skews_.load(std::memory_order_relaxed);
  s.timestamps_clamped = timestamps_clamped_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(backoff_mutex_);
    s.backoff_count = backoff_us_.total() + backoff_us_.underflow() + backoff_us_.overflow();
    if (s.backoff_count > 0) {
      s.backoff_p50_us = backoff_us_.quantile(0.50);
      s.backoff_p95_us = backoff_us_.quantile(0.95);
    }
  }
  {
    std::lock_guard lock(latency_mutex_);
    s.latency_count = latency_us_.total() + latency_us_.underflow() + latency_us_.overflow();
    if (s.latency_count > 0) {
      s.latency_p50_us = latency_us_.quantile(0.50);
      s.latency_p95_us = latency_us_.quantile(0.95);
      s.latency_p99_us = latency_us_.quantile(0.99);
    }
  }
  {
    std::lock_guard lock(eps_mutex_);
    s.eps_count = eps_spend_.total() + eps_spend_.underflow() + eps_spend_.overflow();
    if (s.eps_count > 0) s.eps_p50 = eps_spend_.quantile(0.50);
    s.eps_max_seen = eps_max_seen_;
  }
  return s;
}

io::JsonValue Telemetry::to_json() const {
  const TelemetrySnapshot s = snapshot();
  io::JsonObject counters;
  counters["received"] = static_cast<double>(s.received);
  counters["delivered"] = static_cast<double>(s.delivered);
  counters["suppressed_budget"] = static_cast<double>(s.suppressed_budget);
  counters["rejected_queue_full"] = static_cast<double>(s.rejected_queue_full);
  counters["degraded_suppressed"] = static_cast<double>(s.degraded_suppressed);
  counters["degraded_fallback"] = static_cast<double>(s.degraded_fallback);
  counters["sessions_created"] = static_cast<double>(s.sessions_created);
  counters["sessions_evicted_idle"] = static_cast<double>(s.sessions_evicted_idle);
  counters["sessions_evicted_lru"] = static_cast<double>(s.sessions_evicted_lru);

  io::JsonObject latency;
  latency["count"] = static_cast<double>(s.latency_count);
  latency["p50_us"] = s.latency_p50_us;
  latency["p95_us"] = s.latency_p95_us;
  latency["p99_us"] = s.latency_p99_us;

  io::JsonObject eps;
  eps["count"] = static_cast<double>(s.eps_count);
  eps["p50"] = s.eps_p50;
  eps["max_seen"] = s.eps_max_seen;

  io::JsonObject resilience;
  resilience["downstream_attempts"] = static_cast<double>(s.downstream_attempts);
  resilience["downstream_failures"] = static_cast<double>(s.downstream_failures);
  resilience["downstream_retries"] = static_cast<double>(s.downstream_retries);
  resilience["breaker_trips"] = static_cast<double>(s.breaker_trips);
  resilience["breaker_short_circuits"] = static_cast<double>(s.breaker_short_circuits);
  resilience["deadline_exceeded"] = static_cast<double>(s.deadline_exceeded);
  resilience["degraded_suppressed"] = static_cast<double>(s.degraded_suppressed);
  resilience["degraded_fallback"] = static_cast<double>(s.degraded_fallback);
  resilience["injected_burst_rejects"] = static_cast<double>(s.injected_burst_rejects);
  resilience["worker_stalls"] = static_cast<double>(s.worker_stalls);
  resilience["clock_skews"] = static_cast<double>(s.clock_skews);
  resilience["timestamps_clamped"] = static_cast<double>(s.timestamps_clamped);
  io::JsonObject backoff;
  backoff["count"] = static_cast<double>(s.backoff_count);
  backoff["p50_us"] = s.backoff_p50_us;
  backoff["p95_us"] = s.backoff_p95_us;
  resilience["backoff"] = std::move(backoff);

  io::JsonObject process;
  process["resident_set_kb"] = static_cast<double>(resident_set_kb());

  io::JsonObject root;
  root["counters"] = std::move(counters);
  root["latency"] = std::move(latency);
  root["eps_spend"] = std::move(eps);
  root["resilience"] = std::move(resilience);
  root["process"] = std::move(process);
  return root;
}

std::uint64_t resident_set_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    // Format: "VmRSS:   123456 kB" — take the first integer run.
    const std::size_t digit = line.find_first_of("0123456789");
    if (digit == std::string::npos) return 0;
    return std::strtoull(line.c_str() + digit, nullptr, 10);
  }
  return 0;
}

}  // namespace locpriv::service
