// Resilience soak: the serving gateway under deterministic chaos.
//
// Replays the standard taxi workload with an aggressive injected fault
// schedule — 25 % downstream failures, latency spikes, worker stalls,
// clock skew and queue-overflow bursts — across the three degradation
// policies, and verifies the two hard guarantees on every run:
//
//   1. exactly-once: every submitted report is answered exactly once
//      (delivered, suppressed, rejected or degraded);
//   2. reproducibility: two runs with the same seed produce bit-identical
//      answer streams (checked by digesting every answer).
//
// The table then shows what each policy buys: retry keeps delivery high
// at the cost of retries/latency, suppress sheds load fastest, and
// fallback_cloak converts would-be drops into coarse cloaked answers.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"
#include "io/table.h"
#include "service/gateway.h"
#include "service/load_driver.h"

namespace {

using namespace locpriv;

/// Order-independent digest of the full answer multiset. Answer *values*
/// are deterministic but arrival *order* is not: rejections are answered
/// inline on the submitting thread and race (in wall-clock order only)
/// with worker-thread answers for the same user. Each report is answered
/// exactly once and its seq is unique, so hashing every answer's full
/// field tuple and combining commutatively pins down the entire outcome.
class AnswerDigest {
 public:
  void absorb(const service::ProtectedReport& r) {
    std::uint64_t h = service::stable_hash64(r.user_id);
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    mix(r.seq);
    mix(static_cast<std::uint64_t>(r.status));
    mix(r.downstream_attempts);
    if (r.protected_event.has_value()) {
      mix(static_cast<std::uint64_t>(r.protected_event->time));
      std::uint64_t bits = 0;
      static_assert(sizeof(double) == sizeof(std::uint64_t));
      std::memcpy(&bits, &r.protected_event->location.x, 8);
      mix(bits);
      std::memcpy(&bits, &r.protected_event->location.y, 8);
      mix(bits);
    }
    std::lock_guard lock(mutex_);
    sum_ += h * 0x9e3779b97f4a7c15ULL;
    xor_ ^= h;
    ++count_;
  }

  [[nodiscard]] std::uint64_t value() const {
    std::lock_guard lock(mutex_);
    return sum_ ^ (xor_ * 0x2545f4914f6cdd1dULL);
  }
  [[nodiscard]] std::size_t count() const {
    std::lock_guard lock(mutex_);
    return count_;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t sum_ = 0;
  std::uint64_t xor_ = 0;
  std::size_t count_ = 0;
};

struct SoakRun {
  service::TelemetrySnapshot snap;
  std::uint64_t digest = 0;
  std::size_t answers = 0;
  std::size_t submitted = 0;
  double wall_seconds = 0.0;
};

SoakRun run_soak(const trace::Dataset& data, service::DegradePolicy policy) {
  service::GatewayConfig cfg;
  cfg.workers = 8;
  cfg.sessions.shard_count = 16;
  cfg.queue_capacity = 1 << 16;  // real overflow off: bursts are injected
  cfg.epsilon = 0.02;
  cfg.budget_eps = 0.02 * 120.0;
  cfg.budget_window_s = 3600;
  cfg.seed = 2016;
  cfg.downstream_latency = std::chrono::microseconds(30);
  cfg.faults = service::parse_fault_spec(
      "fail=0.25,latency_p=0.05,latency_us=500,stall_p=0.002,stall_us=1000,"
      "skew_p=0.02,skew_s=120,burst_p=0.01,burst_len=64");
  cfg.resilience.policy = policy;
  cfg.resilience.max_retries = 3;
  cfg.resilience.deadline_us = 20'000;
  cfg.resilience.breaker.failure_threshold = 8;
  cfg.resilience.breaker.cooldown_s = 30;
  cfg.resilience.fallback_cell_m = 5'000.0;

  SoakRun run;
  AnswerDigest digest;
  {
    service::Gateway gateway(cfg, [&](const service::ProtectedReport& r) { digest.absorb(r); });
    const service::LoadResult load = service::replay_dataset(data, gateway);
    run.submitted = load.submitted;
    run.wall_seconds = load.wall_seconds;
    run.snap = gateway.telemetry().snapshot();
  }
  run.digest = digest.value();
  run.answers = digest.count();
  return run;
}

}  // namespace

int main() {
  const trace::Dataset data = bench::standard_taxi_dataset();
  std::cout << "resilience soak: " << data.size() << " users, " << data.total_events()
            << " events | 25% downstream failures + latency spikes, stalls, skew, bursts\n\n";

  io::Table table({"policy", "delivered", "degraded", "rejected", "retries", "trips",
                   "short-circ", "p99 us", "exactly-once", "reproducible"});
  bool all_ok = true;
  for (const service::DegradePolicy policy :
       {service::DegradePolicy::retry, service::DegradePolicy::suppress,
        service::DegradePolicy::fallback_cloak}) {
    const SoakRun a = run_soak(data, policy);
    const SoakRun b = run_soak(data, policy);

    using service::Count;
    const auto& s = a.snap;
    const bool exactly_once =
        a.answers == a.submitted &&
        s[Count::received] == s[Count::delivered] + s[Count::suppressed_budget] +
                                  s[Count::rejected_queue_full] + s[Count::degraded_suppressed] +
                                  s[Count::degraded_fallback];
    const bool reproducible = a.digest == b.digest && a.answers == b.answers;
    all_ok = all_ok && exactly_once && reproducible;

    table.add_row({service::to_string(policy), std::to_string(s[Count::delivered]),
                   std::to_string(s[Count::degraded_suppressed] + s[Count::degraded_fallback]),
                   std::to_string(s[Count::rejected_queue_full]),
                   std::to_string(s[Count::downstream_retries]),
                   std::to_string(s[Count::breaker_trips]),
                   std::to_string(s[Count::breaker_short_circuits]),
                   std::to_string(static_cast<long long>(s.latency_p99_us)),
                   exactly_once ? "yes" : "NO", reproducible ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::cout << "\nretry pays retries to keep delivery high; suppress sheds immediately;\n"
               "fallback_cloak converts the drops into coarse grid-cloaked answers.\n";
  if (!all_ok) {
    std::cout << "\nSOAK FAILED: a guarantee above was violated.\n";
    return 1;
  }
  return 0;
}
