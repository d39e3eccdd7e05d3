// Shared pieces of the benchmark harness: clocks and resource probes,
// the harness's own span log, the host stall probe, the seeded fleet
// writer, and the result record every workload fills in.
//
// Everything here observes the library from outside: the harness times
// calls into public functions and reads public telemetry; it adds no
// instrumentation to the library itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] double seconds_since(Clock::time_point t0);

/// User+system CPU of this process (all threads), seconds.
[[nodiscard]] double process_cpu_s();
/// User+system CPU of every reaped descendant, seconds.
[[nodiscard]] double children_cpu_s();
/// This process's peak resident set (VmHWM) since the last
/// reset_peak_rss(), MiB.
[[nodiscard]] double peak_rss_mb();
/// Restarts the peak-RSS mark at the current resident set, so the next
/// peak_rss_mb() covers only what follows. False when unsupported.
bool reset_peak_rss();

/// q-quantile, linearly interpolated between order statistics; 0 for
/// an empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The harness's own spans: one record per call it makes into a layer,
/// kept in memory and written out as Chrome trace-event JSON at exit.
/// Recording is off unless enable() was called; the harness is
/// single-threaded wherever it records, so no locking.
class SpanLog {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = top level
    std::string layer;
    std::string name;
    double start_s = 0.0;  ///< since the log's epoch
    double dur_s = 0.0;
  };

  static SpanLog& instance();
  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  void write_chrome_trace(const std::string& path) const;

 private:
  friend class Span;
  Clock::time_point epoch_ = Clock::now();
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::uint64_t> open_;  ///< stack of open span ids
};

/// RAII span in the harness log; inert when the log is disabled.
class Span {
 public:
  Span(const char* layer, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::size_t index_ = 0;
  bool active_ = false;
  Clock::time_point start_;
};

/// How much wall time a spinning thread lost to the host: the share of
/// a short spin spent in gaps longer than 50 µs, and the longest gap.
/// Also times a fixed integer loop of harness code (no library code), so
/// a change in the host's own speed between runs shows as such.
struct Stalls {
  double frac = 0.0;
  double max_ms = 0.0;
  double ref_loop_ms = 0.0;
};
[[nodiscard]] Stalls probe_stalls(double seconds);

/// Keeps the worst of several probes.
void merge_stalls(Stalls& into, const Stalls& s);

/// The synthetic taxi fleet of every workload (600 cabs, 8-hour
/// shifts), synthesized from `seed` and written as a binary .lpds in a
/// throwaway child process so its heap never counts toward this
/// process's RSS, nor is inherited copy-on-write by forked shards.
/// Reaped before returning. Throws std::runtime_error on failure.
void build_fleet_file(const std::string& path, std::uint64_t seed);
inline constexpr std::size_t kFleetCabs = 600;

/// One workload run's outcome. `metrics` holds what the final contract
/// line prints; `detail` carries everything else (per-workload headline
/// values, sample counts, tail percentiles, the layer map).
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  locpriv::io::JsonObject detail;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok) { checks.emplace_back(std::move(name), ok); }
  [[nodiscard]] bool correct() const;
  [[nodiscard]] locpriv::io::JsonValue to_json() const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< working files (fleet, sockets, trace output)
};

}  // namespace perfbench
