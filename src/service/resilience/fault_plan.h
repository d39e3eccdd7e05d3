// Deterministic fault injection for the streaming gateway.
//
// A FaultPlan is a pure function of (spec, seed): every question about a
// request — does its downstream call fail? how long does it take? does
// the worker stall first? how skewed is the client clock? does the
// submission land in an overflow burst? — is answered by hashing the
// request's identity (user hash, global sequence number, attempt index)
// into the plan's seed space. No global counters, no wall clock, no
// shared state: the same seed produces the same chaos bit for bit,
// regardless of worker count or scheduling, which is what makes chaos
// runs reproducible and ctest-able. Tests reconcile telemetry against
// the schedule by replaying the same pure functions offline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "io/spec.h"
#include "trace/event.h"

namespace locpriv::service {

/// What to inject and how hard. All probabilities in [0, 1]; an
/// all-zero spec injects nothing (FaultSpec{}.any() == false).
struct FaultSpec {
  // Downstream RPC faults, decided independently per attempt — retries
  // of the same report redraw, so a retry can succeed.
  double fail_probability = 0.0;       ///< P(attempt returns an error)
  double latency_probability = 0.0;    ///< P(attempt incurs a latency spike)
  std::uint32_t latency_spike_us = 0;  ///< spike magnitude, simulated µs

  // Worker stalls, per request: the worker freezes before protecting
  // (GC pause, page fault, noisy neighbour).
  double stall_probability = 0.0;
  std::uint32_t stall_us = 0;

  // Client clock skew, per request: the report timestamp is off by a
  // uniform amount in [-skew_max_s, +skew_max_s], stressing the
  // sliding-window budget accounting.
  double skew_probability = 0.0;
  trace::Timestamp skew_max_s = 0;

  // Queue-overflow bursts: the global submission sequence is cut into
  // blocks of burst_len; each block is a burst with probability
  // burst_probability, and every submission inside a burst block is
  // rejected at the gate (simulated queue overflow).
  double burst_probability = 0.0;
  std::uint64_t burst_len = 32;

  /// True when any fault has a nonzero probability.
  [[nodiscard]] bool any() const;
  /// Throws std::invalid_argument on out-of-range probabilities or
  /// zero magnitudes for enabled faults.
  void validate() const;
};

/// The spec's keys, one row each; parsing, printing and the --faults
/// help all read this table.
inline constexpr io::SpecKey<FaultSpec> kFaultSpecKeys[] = {
    {"fail", &FaultSpec::fail_probability},
    {"latency_p", &FaultSpec::latency_probability},
    {"latency_us", &FaultSpec::latency_spike_us},
    {"stall_p", &FaultSpec::stall_probability},
    {"stall_us", &FaultSpec::stall_us},
    {"skew_p", &FaultSpec::skew_probability},
    {"skew_s", &FaultSpec::skew_max_s},
    {"burst_p", &FaultSpec::burst_probability},
    {"burst_len", &FaultSpec::burst_len},
};

/// Parses a comma-separated `key=value` spec (io::parse_spec over
/// kFaultSpecKeys), then validates it. Unknown keys, values their field
/// cannot hold and out-of-range settings throw std::invalid_argument
/// naming the key.
[[nodiscard]] FaultSpec parse_fault_spec(std::string_view spec);

/// Canonical spec string (parse round-trips); only non-default keys appear.
[[nodiscard]] std::string to_string(const FaultSpec& spec);

/// One injected downstream attempt outcome.
struct DownstreamOutcome {
  bool failed = false;
  std::uint32_t latency_us = 0;  ///< injected spike on top of the base RTT
};

/// The seeded schedule. Every method is const, thread-safe and pure:
/// calling it twice (or from two processes) with the same arguments
/// returns the same answer.
class FaultPlan {
 public:
  /// Validates the spec (throws std::invalid_argument as validate()).
  FaultPlan(const FaultSpec& spec, std::uint64_t seed);

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Outcome of downstream attempt #`attempt` (0-based) for report
  /// (`user_hash`, `seq`).
  [[nodiscard]] DownstreamOutcome downstream(std::uint64_t user_hash, std::uint64_t seq,
                                             std::uint32_t attempt) const;
  /// Worker stall before processing the report; 0 = no stall.
  [[nodiscard]] std::uint32_t stall_us(std::uint64_t user_hash, std::uint64_t seq) const;
  /// Clock skew applied to the report timestamp; 0 = clock is true.
  [[nodiscard]] trace::Timestamp clock_skew_s(std::uint64_t user_hash, std::uint64_t seq) const;
  /// True when submission #`seq` falls in a simulated overflow burst.
  [[nodiscard]] bool burst_reject(std::uint64_t seq) const;

 private:
  /// Uniform [0, 1) draw keyed by (fault kind, a, b, c).
  [[nodiscard]] double draw(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) const;

  FaultSpec spec_;
  std::uint64_t seed_;
};

}  // namespace locpriv::service
