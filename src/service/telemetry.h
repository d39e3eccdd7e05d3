// Live observability of the serving gateway: one table of lock-free
// counters for the hot path, mutex-guarded histograms for
// distributions, and a JSON snapshot for dashboards / offline analysis.
//
// Every counter is one `Count` and one row of kCountTable, which gives
// its JSON key and block. Storage, snapshot, to_json() and the shard
// supervisor's aggregate all loop over the table, so a counter is named
// exactly once. Counters are plain relaxed atomics — every worker bumps
// them on every report, so they must never contend. The three
// histograms (service latency, per-user ε spend at delivery time, retry
// backoff) share one short mutex; an add into a fixed-bin
// stats::Histogram is a handful of instructions, so the critical
// section is far cheaper than the Laplace sampling it measures.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "io/json.h"
#include "stats/histogram.h"

namespace locpriv::service {

/// Why a report came back the way it did.
enum class ReportStatus {
  delivered,            ///< protected event attached
  suppressed_budget,    ///< session returned nothing (for the default
                        ///< factory: ε window exhausted; a custom
                        ///< dropout session lands here too)
  rejected_queue_full,  ///< backpressure: never reached a session
  degraded_suppressed,  ///< downstream call gave up; report dropped
  degraded_fallback,    ///< downstream call gave up; answered with a
                        ///< coarse grid-cloaked point instead
};

/// Every serving counter. The first five mirror ReportStatus in its
/// order, so an answer of status s bumps Count(s).
///
/// After a drain, received = delivered + suppressed_budget +
/// rejected_queue_full + degraded_suppressed + degraded_fallback,
/// downstream_retries = downstream_attempts - calls, and
/// injected_burst_rejects <= rejected_queue_full.
enum class Count : std::size_t {
  delivered,
  suppressed_budget,    ///< ε window exhausted
  rejected_queue_full,  ///< backpressure suppression
  degraded_suppressed,  ///< downstream gave up, report dropped
  degraded_fallback,    ///< answered with a grid-cloaked point
  received,
  sessions_created,
  sessions_evicted_idle,
  sessions_evicted_lru,
  downstream_attempts,
  downstream_failures,
  downstream_retries,
  breaker_trips,
  breaker_short_circuits,
  deadline_exceeded,
  injected_burst_rejects,
  worker_stalls,
  clock_skews,
  timestamps_clamped,  ///< backwards client clocks sanitized
};
inline constexpr std::size_t kNumCounts = 19;

/// The top-level JSON block(s) that list a counter.
enum class Block { counters, resilience, both };

struct CountSpec {
  Count count;
  const char* name;  ///< JSON key in every block that lists it
  Block block;
};

inline constexpr std::array<CountSpec, kNumCounts> kCountTable{{
    {Count::delivered, "delivered", Block::counters},
    {Count::suppressed_budget, "suppressed_budget", Block::counters},
    {Count::rejected_queue_full, "rejected_queue_full", Block::counters},
    {Count::degraded_suppressed, "degraded_suppressed", Block::both},
    {Count::degraded_fallback, "degraded_fallback", Block::both},
    {Count::received, "received", Block::counters},
    {Count::sessions_created, "sessions_created", Block::counters},
    {Count::sessions_evicted_idle, "sessions_evicted_idle", Block::counters},
    {Count::sessions_evicted_lru, "sessions_evicted_lru", Block::counters},
    {Count::downstream_attempts, "downstream_attempts", Block::resilience},
    {Count::downstream_failures, "downstream_failures", Block::resilience},
    {Count::downstream_retries, "downstream_retries", Block::resilience},
    {Count::breaker_trips, "breaker_trips", Block::resilience},
    {Count::breaker_short_circuits, "breaker_short_circuits", Block::resilience},
    {Count::deadline_exceeded, "deadline_exceeded", Block::resilience},
    {Count::injected_burst_rejects, "injected_burst_rejects", Block::resilience},
    {Count::worker_stalls, "worker_stalls", Block::resilience},
    {Count::clock_skews, "clock_skews", Block::resilience},
    {Count::timestamps_clamped, "timestamps_clamped", Block::resilience},
}};

static_assert(
    [] {
      for (std::size_t i = 0; i < kNumCounts; ++i) {
        if (kCountTable[i].count != static_cast<Count>(i)) return false;
      }
      const auto mirrors = [](ReportStatus s, Count c) {
        return static_cast<std::size_t>(s) == static_cast<std::size_t>(c);
      };
      return mirrors(ReportStatus::delivered, Count::delivered) &&
             mirrors(ReportStatus::suppressed_budget, Count::suppressed_budget) &&
             mirrors(ReportStatus::rejected_queue_full, Count::rejected_queue_full) &&
             mirrors(ReportStatus::degraded_suppressed, Count::degraded_suppressed) &&
             mirrors(ReportStatus::degraded_fallback, Count::degraded_fallback);
    }(),
    "kCountTable rows follow Count, whose first rows follow ReportStatus");

/// JSON block names (see docs/SERVICE.md).
inline constexpr const char* kCountersBlock = "counters";
inline constexpr const char* kResilienceBlock = "resilience";

/// The block a counter is read back from: `counters` when it is listed
/// in both.
[[nodiscard]] constexpr const char* home_block(Block b) {
  return b == Block::resilience ? kResilienceBlock : kCountersBlock;
}

/// The status's name — its counter's JSON key.
[[nodiscard]] const char* to_string(ReportStatus s);

/// Point-in-time copy of every gauge the gateway exposes. Plain values —
/// safe to hold, print or serialize after the gateway is gone.
struct TelemetrySnapshot {
  std::array<std::uint64_t, kNumCounts> counts{};
  [[nodiscard]] std::uint64_t operator[](Count c) const {
    return counts[static_cast<std::size_t>(c)];
  }

  // Service-time distribution (µs, measured around the protection call)
  // of every answer a worker gave: delivered, suppressed and degraded.
  std::uint64_t latency_count = 0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;

  // ε spent inside the sliding window, sampled at each delivered or
  // fallback answer.
  std::uint64_t eps_count = 0;
  double eps_p50 = 0.0;
  double eps_max_seen = 0.0;

  // Backoff delays issued before retries (µs).
  std::uint64_t backoff_count = 0;
  double backoff_p50_us = 0.0;
  double backoff_p95_us = 0.0;
};

/// Shared telemetry sink. Every method is thread-safe; they are called
/// concurrently by every worker plus the submitting thread.
class Telemetry {
 public:
  /// `eps_hi` bounds the ε-spend histogram (latency tops out at 50 ms,
  /// backoff at 20 ms); samples above a bound land in the overflow tally
  /// and saturate the quantiles at it.
  explicit Telemetry(double eps_hi = 1.0);

  void add(Count c) {
    counts_[static_cast<std::size_t>(c)].fetch_add(1, std::memory_order_relaxed);
  }

  /// A report a worker answered (every status but rejected_queue_full,
  /// which submit() answers without a service time). Counts `outcome`,
  /// samples the latency and, for delivered and fallback answers, the
  /// window ε spend after this report (NaN when the session has no
  /// budget).
  void record_answer(ReportStatus outcome, double latency_us, double eps_spent_window);

  /// A retry was scheduled after `backoff_us` of (virtual) delay.
  void record_retry(double backoff_us);

  [[nodiscard]] TelemetrySnapshot snapshot() const;

  /// Stable-schema JSON report (documented in docs/SERVICE.md). Includes
  /// a `process` block with the caller's resident set, so a per-shard
  /// snapshot doubles as the page-sharing evidence the service bench
  /// collects.
  [[nodiscard]] io::JsonValue to_json() const;

 private:
  std::array<std::atomic<std::uint64_t>, kNumCounts> counts_{};

  mutable std::mutex mutex_;  ///< guards everything below
  stats::Histogram latency_us_;
  stats::Histogram eps_spend_;
  double eps_max_seen_ = 0.0;
  stats::Histogram backoff_us_;
};

/// This process's resident set (VmRSS from /proc/self/status), in KiB.
/// 0 when the value is unavailable (non-Linux). Cheap enough to call on
/// every telemetry snapshot.
[[nodiscard]] std::uint64_t resident_set_kb();

}  // namespace locpriv::service
