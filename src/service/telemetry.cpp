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

std::uint64_t samples(const stats::Histogram& h) {
  return h.total() + h.underflow() + h.overflow();
}

}  // namespace

const char* to_string(ReportStatus s) { return kCountTable[static_cast<std::size_t>(s)].name; }

Telemetry::Telemetry(double eps_hi)
    : latency_us_(0.0, kLatencyHiUs, kLatencyBins),
      eps_spend_(0.0, eps_hi, kEpsBins),
      backoff_us_(0.0, kBackoffHiUs, kBackoffBins) {}

void Telemetry::record_answer(ReportStatus outcome, double latency_us, double eps_spent_window) {
  add(static_cast<Count>(outcome));
  const bool spent = (outcome == ReportStatus::delivered ||
                      outcome == ReportStatus::degraded_fallback) &&
                     !std::isnan(eps_spent_window);
  std::lock_guard lock(mutex_);
  latency_us_.add(latency_us);
  if (spent) {
    eps_spend_.add(eps_spent_window);
    if (eps_spent_window > eps_max_seen_) eps_max_seen_ = eps_spent_window;
  }
}

void Telemetry::record_retry(double backoff_us) {
  add(Count::downstream_retries);
  std::lock_guard lock(mutex_);
  backoff_us_.add(backoff_us);
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot s;
  for (std::size_t i = 0; i < kNumCounts; ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  std::lock_guard lock(mutex_);
  s.backoff_count = samples(backoff_us_);
  if (s.backoff_count > 0) {
    s.backoff_p50_us = backoff_us_.quantile(0.50);
    s.backoff_p95_us = backoff_us_.quantile(0.95);
  }
  s.latency_count = samples(latency_us_);
  if (s.latency_count > 0) {
    s.latency_p50_us = latency_us_.quantile(0.50);
    s.latency_p95_us = latency_us_.quantile(0.95);
    s.latency_p99_us = latency_us_.quantile(0.99);
  }
  s.eps_count = samples(eps_spend_);
  if (s.eps_count > 0) s.eps_p50 = eps_spend_.quantile(0.50);
  s.eps_max_seen = eps_max_seen_;
  return s;
}

io::JsonValue Telemetry::to_json() const {
  const TelemetrySnapshot s = snapshot();
  io::JsonObject counters;
  io::JsonObject resilience;
  for (const CountSpec& spec : kCountTable) {
    const double value = static_cast<double>(s[spec.count]);
    if (spec.block != Block::resilience) counters[spec.name] = value;
    if (spec.block != Block::counters) resilience[spec.name] = value;
  }

  io::JsonObject latency;
  latency["count"] = static_cast<double>(s.latency_count);
  latency["p50_us"] = s.latency_p50_us;
  latency["p95_us"] = s.latency_p95_us;
  latency["p99_us"] = s.latency_p99_us;

  io::JsonObject eps;
  eps["count"] = static_cast<double>(s.eps_count);
  eps["p50"] = s.eps_p50;
  eps["max_seen"] = s.eps_max_seen;

  io::JsonObject backoff;
  backoff["count"] = static_cast<double>(s.backoff_count);
  backoff["p50_us"] = s.backoff_p50_us;
  backoff["p95_us"] = s.backoff_p95_us;
  resilience["backoff"] = std::move(backoff);

  io::JsonObject process;
  process["resident_set_kb"] = static_cast<double>(resident_set_kb());

  io::JsonObject root;
  root[kCountersBlock] = std::move(counters);
  root["latency"] = std::move(latency);
  root["eps_spend"] = std::move(eps);
  root[kResilienceBlock] = std::move(resilience);
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
