// perfbench — the repository benchmark harness.
//
//   perfbench --workload configure-geoi|serve-steady|serve-churn
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Runs one workload and prints one JSON document on its last stdout
// line: the workload's metrics (end-to-end with --trace 0, per-layer
// with --trace 1), the output checks, a detail block and the host
// block. perfbench/run.py builds this binary and turns that document
// into the benchmark's result line.
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

namespace io = locpriv::io;
using perfbench::Result;

/// Every per-layer metric, the end-to-end metric it should move, and on
/// which workload. A traced run reports all of them; a layer the
/// workload never calls reads 0 (no time, no work).
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
  const char* workload;
};

constexpr LayerMetric kLayers[] = {
    {"trace.load_s", "s", "setup_s", "all"},
    {"lppm.protect_s", "s", "answer_ms", "configure-geoi"},
    {"lppm.events_per_s", "1/s", "answer_ms", "configure-geoi"},
    {"lppm.report_us", "us", "cpu_ms_per_answer", "serve-steady"},
    {"metrics.privacy_s", "s", "answer_ms", "configure-geoi"},
    {"metrics.utility_s", "s", "answer_ms", "configure-geoi"},
    {"metrics.artifact_builds", "count", "cpu_ms_per_answer,peak_rss_mb", "configure-geoi"},
    {"metrics.artifact_hit_rate", "ratio", "cpu_ms_per_answer,peak_rss_mb", "configure-geoi"},
    {"core.fit_s", "s", "answer_ms", "configure-geoi"},
    {"core.invert_s", "s", "answer_ms", "configure-geoi"},
    {"core.cpu_util", "ratio", "answer_ms", "configure-geoi"},
    {"service.handle_p50_us", "us", "answer_ms", "serve-steady,serve-churn"},
    {"service.handle_p99_us", "us", "answer_ms", "serve-steady,serve-churn"},
    {"shard.outside_handle_p50_us", "us", "answer_ms", "serve-steady,serve-churn"},
    {"service.inproc_reports_per_s", "1/s", "answer_ms", "serve-steady,serve-churn"},
    {"service.sessions_created", "count", "cpu_ms_per_answer", "serve-churn vs serve-steady"},
    {"service.sessions_evicted_lru", "count", "cpu_ms_per_answer", "serve-churn vs serve-steady"},
    {"service.suppressed_budget", "count", "cpu_ms_per_answer", "serve-churn vs serve-steady"},
    {"service.rejected_queue_full", "count", "fail_frac", "serve-churn vs serve-steady"},
    {"net.submit_bytes", "B", "cpu_ms_per_answer,answer_ms", "serve-steady,serve-churn"},
    {"net.answer_bytes", "B", "cpu_ms_per_answer,answer_ms", "serve-steady,serve-churn"},
    {"net.client_writes_per_report", "ratio", "cpu_ms_per_answer,answer_ms",
     "serve-steady,serve-churn"},
    {"net.client_reads_per_answer", "ratio", "cpu_ms_per_answer,answer_ms",
     "serve-steady,serve-churn"},
    {"net.client_codec_us", "us", "cpu_ms_per_answer,answer_ms",
     "serve-steady,serve-churn"},
    {"shard.rss_after_map_kb", "KiB", "peak_rss_mb", "serve-steady,serve-churn"},
    {"shard.rss_after_load_kb", "KiB", "peak_rss_mb", "serve-steady,serve-churn"},
    {"gen.late_p99_ms", "ms", "validity (no target)", "serve-steady,serve-churn"},
    {"host.stall_frac", "ratio", "validity (no target)", "all"},
    {"host.stall_max_ms", "ms", "validity (no target)", "all"},
    {"host.ref_loop_ms", "ms", "validity (no target): the host's own speed", "all"},
    {"obs.trace_overhead", "s", "answer_ms (traced - untraced)", "configure-geoi"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

io::JsonObject host_block() {
  io::JsonObject h;
  h["cores"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  h["cpu_model"] = cpu_model();
  h["compiler"] = PERFBENCH_COMPILER;
  h["build_type"] = PERFBENCH_BUILD_TYPE;
  return h;
}

/// Completes a traced result: zero for layers the workload never calls,
/// and the layer map in the detail block.
void complete_layers(Result& res) {
  std::set<std::string> have;
  for (const Result::Metric& m : res.metrics) have.insert(m.name);
  io::JsonArray map;
  for (const LayerMetric& l : kLayers) {
    if (!have.count(l.name)) res.metric(l.name, 0.0, l.unit);
    io::JsonObject row;
    row["name"] = l.name;
    row["unit"] = l.unit;
    row["moves"] = l.moves;
    row["workload"] = l.workload;
    map.emplace_back(std::move(row));
  }
  res.detail["layer_map"] = std::move(map);
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload configure-geoi|serve-steady|serve-churn"
               " --seed N --seconds S --trace 0|1 --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") opt.workload = value;
      else if (key == "--seed") opt.seed = std::stoull(value);
      else if (key == "--seconds") opt.seconds = std::stod(value);
      else if (key == "--trace") opt.trace = value == "1";
      else if (key == "--work-dir") opt.work_dir = value;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (opt.work_dir.empty()) return usage("--work-dir is required");
  if (opt.seconds <= 0) return usage("--seconds must be positive");

  perfbench::SpanLog& spans = perfbench::SpanLog::instance();
  if (opt.trace) spans.enable();
  Result res;
  try {
    if (opt.workload == "configure-geoi") {
      res = perfbench::run_configure(opt);
    } else if (opt.workload == "serve-steady" || opt.workload == "serve-churn") {
      res = perfbench::run_serve(opt, opt.workload == "serve-churn");
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (opt.trace) {
    complete_layers(res);
    const std::string path = opt.work_dir + "/spans-" + opt.workload + ".json";
    spans.write_chrome_trace(path);
    res.detail["spans_file"] = path;
    res.detail["spans"] = spans.records().size();
  }
  io::JsonObject doc = res.to_json().as_object();
  doc["workload"] = opt.workload;
  doc["seed"] = static_cast<double>(opt.seed);
  doc["host"] = host_block();
  std::cout << io::to_json(io::JsonValue(std::move(doc))) << std::endl;
  return 0;
}
