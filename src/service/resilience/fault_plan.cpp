#include "service/resilience/fault_plan.h"

#include <cmath>
#include <stdexcept>

#include "stats/rng.h"

namespace locpriv::service {
namespace {

// Kind tags keep the draw streams for different fault types
// decorrelated even when they share (user_hash, seq).
enum Kind : std::uint64_t {
  kFail = 1,
  kLatency = 2,
  kStall = 3,
  kStallMag = 4,
  kSkew = 5,
  kSkewMag = 6,
  kBurst = 7,
};

void check_probability(const char* name, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string("FaultSpec: ") + name +
                                " must be a probability in [0, 1]");
  }
}

}  // namespace

bool FaultSpec::any() const {
  return fail_probability > 0.0 || latency_probability > 0.0 || stall_probability > 0.0 ||
         skew_probability > 0.0 || burst_probability > 0.0;
}

void FaultSpec::validate() const {
  check_probability("fail", fail_probability);
  check_probability("latency_p", latency_probability);
  check_probability("stall_p", stall_probability);
  check_probability("skew_p", skew_probability);
  check_probability("burst_p", burst_probability);
  if (latency_probability > 0.0 && latency_spike_us == 0) {
    throw std::invalid_argument("FaultSpec: latency_us must be > 0 when latency_p is set");
  }
  if (stall_probability > 0.0 && stall_us == 0) {
    throw std::invalid_argument("FaultSpec: stall_us must be > 0 when stall_p is set");
  }
  if (skew_probability > 0.0 && skew_max_s <= 0) {
    throw std::invalid_argument("FaultSpec: skew_s must be > 0 when skew_p is set");
  }
  if (burst_len == 0) throw std::invalid_argument("FaultSpec: burst_len must be >= 1");
}

FaultSpec parse_fault_spec(std::string_view spec) {
  FaultSpec out = io::parse_spec(spec, kFaultSpecKeys, "fault spec");
  out.validate();
  return out;
}

std::string to_string(const FaultSpec& spec) { return io::format_spec(spec, kFaultSpecKeys); }

FaultPlan::FaultPlan(const FaultSpec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {
  spec_.validate();
}

double FaultPlan::draw(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) const {
  std::uint64_t s = stats::derive_seed(stats::derive_seed(stats::derive_seed(seed_, kind), a),
                                       stats::derive_seed(b, c));
  return static_cast<double>(stats::splitmix64(s) >> 11) * 0x1.0p-53;
}

DownstreamOutcome FaultPlan::downstream(std::uint64_t user_hash, std::uint64_t seq,
                                        std::uint32_t attempt) const {
  DownstreamOutcome out;
  if (spec_.fail_probability > 0.0) {
    out.failed = draw(kFail, user_hash, seq, attempt) < spec_.fail_probability;
  }
  if (spec_.latency_probability > 0.0 &&
      draw(kLatency, user_hash, seq, attempt) < spec_.latency_probability) {
    out.latency_us = spec_.latency_spike_us;
  }
  return out;
}

std::uint32_t FaultPlan::stall_us(std::uint64_t user_hash, std::uint64_t seq) const {
  if (spec_.stall_probability <= 0.0 || draw(kStall, user_hash, seq, 0) >= spec_.stall_probability) {
    return 0;
  }
  // Stall duration varies in [stall_us/2, stall_us] so stalls are not
  // all identical (tail shapes matter for the latency histograms).
  const double frac = 0.5 + 0.5 * draw(kStallMag, user_hash, seq, 0);
  return static_cast<std::uint32_t>(std::lround(static_cast<double>(spec_.stall_us) * frac));
}

trace::Timestamp FaultPlan::clock_skew_s(std::uint64_t user_hash, std::uint64_t seq) const {
  if (spec_.skew_probability <= 0.0 || draw(kSkew, user_hash, seq, 0) >= spec_.skew_probability) {
    return 0;
  }
  const double u = draw(kSkewMag, user_hash, seq, 0);  // [0, 1)
  const double skew = (2.0 * u - 1.0) * static_cast<double>(spec_.skew_max_s);
  return static_cast<trace::Timestamp>(std::llround(skew));
}

bool FaultPlan::burst_reject(std::uint64_t seq) const {
  if (spec_.burst_probability <= 0.0) return false;
  const std::uint64_t block = seq / spec_.burst_len;
  return draw(kBurst, block, 0, 0) < spec_.burst_probability;
}

}  // namespace locpriv::service
