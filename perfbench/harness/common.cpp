#include "common.h"

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "synth/scenario.h"
#include "trace/trace_io.h"

namespace perfbench {

namespace io = locpriv::io;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

namespace {

double cpu_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace

double process_cpu_s() { return cpu_of(RUSAGE_SELF); }
double children_cpu_s() { return cpu_of(RUSAGE_CHILDREN); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5 = reset the peak resident set to the current one
  clear.flush();
  return clear.good();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto k = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  const double lo = v[k];
  if (k + 1 >= v.size()) return lo;
  const double hi = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(k) + 1, v.end());
  return lo + (pos - static_cast<double>(k)) * (hi - lo);
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  io::JsonArray events;
  events.reserve(records_.size());
  for (const Record& r : records_) {
    io::JsonObject e;
    e["name"] = r.name;
    e["cat"] = r.layer;
    e["ph"] = "X";
    e["pid"] = 1;
    e["tid"] = 1;
    e["ts"] = r.start_s * 1e6;
    e["dur"] = r.dur_s * 1e6;
    io::JsonObject args;
    args["id"] = static_cast<double>(r.id);
    args["parent"] = static_cast<double>(r.parent);
    e["args"] = std::move(args);
    events.emplace_back(std::move(e));
  }
  io::JsonObject root;
  root["traceEvents"] = std::move(events);
  io::write_json_file(path, io::JsonValue(std::move(root)));
}

Span::Span(const char* layer, std::string name) {
  SpanLog& log = SpanLog::instance();
  if (!log.enabled_) return;
  active_ = true;
  start_ = Clock::now();
  SpanLog::Record rec;
  rec.id = log.records_.size() + 1;
  rec.parent = log.open_.empty() ? 0 : log.open_.back();
  rec.layer = layer;
  rec.name = std::move(name);
  rec.start_s = seconds_between(log.epoch_, start_);
  index_ = log.records_.size();
  log.open_.push_back(rec.id);
  log.records_.push_back(std::move(rec));
}

Span::~Span() {
  if (!active_) return;
  SpanLog& log = SpanLog::instance();
  log.records_[index_].dur_s = seconds_since(start_);
  log.open_.pop_back();
}

namespace {

/// 20 million dependent xorshift steps: pure ALU work whose time moves
/// only with the host's speed.
double reference_loop_ms() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = seconds_since(t0) * 1e3;
  volatile std::uint64_t observed = x;  // keeps the loop from being folded away
  (void)observed;
  return ms;
}

}  // namespace

Stalls probe_stalls(double seconds) {
  Span span("host", "stall_probe");
  constexpr double kGapS = 50e-6;
  Stalls s;
  s.ref_loop_ms = reference_loop_ms();
  const Clock::time_point t0 = Clock::now();
  Clock::time_point prev = t0;
  double lost = 0.0;
  for (;;) {
    const Clock::time_point now = Clock::now();
    const double gap = seconds_between(prev, now);
    if (gap > kGapS) {
      lost += gap;
      s.max_ms = std::max(s.max_ms, gap * 1e3);
    }
    prev = now;
    const double elapsed = seconds_between(t0, now);
    if (elapsed >= seconds) {
      s.frac = lost / elapsed;
      return s;
    }
  }
}

void merge_stalls(Stalls& into, const Stalls& s) {
  into.frac = std::max(into.frac, s.frac);
  into.max_ms = std::max(into.max_ms, s.max_ms);
  into.ref_loop_ms = std::max(into.ref_loop_ms, s.ref_loop_ms);
}

void build_fleet_file(const std::string& path, std::uint64_t seed) {
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("fork of the fleet writer failed");
  if (child == 0) {
    try {
      locpriv::synth::TaxiScenarioConfig cfg;
      cfg.driver_count = kFleetCabs;
      cfg.taxi.shift_duration_s = 8 * 3600;
      locpriv::trace::save_dataset(path, locpriv::synth::make_taxi_dataset(cfg, seed));
      _exit(0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleet writer: %s\n", e.what());
      _exit(1);
    }
  }
  int status = 0;
  if (waitpid(child, &status, 0) != child || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("fleet writer failed for " + path);
  }
}

bool Result::correct() const {
  return std::all_of(checks.begin(), checks.end(), [](const auto& c) { return c.second; });
}

io::JsonValue Result::to_json() const {
  io::JsonObject metrics_json;
  for (const Metric& m : metrics) {
    io::JsonObject v;
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics_json[m.name] = std::move(v);
  }
  io::JsonObject checks_json;
  for (const auto& [name, ok] : checks) checks_json[name] = ok;
  io::JsonObject root;
  root["correct"] = correct();
  root["attempted"] = static_cast<double>(attempted);
  root["failed"] = static_cast<double>(failed);
  root["metrics"] = std::move(metrics_json);
  root["checks"] = std::move(checks_json);
  root["detail"] = detail;
  return io::JsonValue(std::move(root));
}

}  // namespace perfbench
