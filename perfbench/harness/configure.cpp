// configure-geoi: the paper's three steps, timed from outside.
//
//   set-up   load the fleet .lpds + build make_geo_i_system (repeated;
//            the median is setup_s)
//   answer   run_sweep (4 threads) -> fit_loglinear_model ->
//            Configurator::configure, repeated until the time budget is
//            spent; one repetition is one "answer" (an ε for the
//            designer's objectives)
//   checks   every answer feasible; every repetition's sweep
//            bit-identical to the first; two sampled points recomputed
//            single-threaded by core::evaluate_point bit-identical to
//            the threaded sweep
//
// In a traced run the first half of the budget repeats untraced and the
// second half with the library's obs::Tracer switched on; the per-layer
// numbers come from the traced half, and obs.trace_overhead is the
// difference of the two halves' median answer times.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/configurator.h"
#include "core/experiment.h"
#include "core/loglinear_model.h"
#include "core/system_definition.h"
#include "metrics/eval_context.h"
#include "obs/tracer.h"
#include "stats/rng.h"
#include "trace/trace_io.h"
#include "workloads.h"

namespace perfbench {

namespace core = locpriv::core;
namespace io = locpriv::io;

namespace {

constexpr std::size_t kSweepPoints = 21;
constexpr std::size_t kTrials = 3;
constexpr std::size_t kThreads = 4;
constexpr int kSetupReps = 5;
constexpr int kMinAnswers = 2;

/// Library-side time split of one traced answer, read back from the
/// obs::Tracer capture (spans are thread-seconds: summed over workers).
struct LayerSplit {
  double protect_s = 0.0;
  double privacy_s = 0.0;
  double utility_s = 0.0;
  double artifact_builds = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
};

LayerSplit read_tracer(const core::SystemDefinition& system) {
  locpriv::obs::Tracer& tracer = locpriv::obs::Tracer::instance();
  const io::JsonValue doc = tracer.trace_json();
  LayerSplit split;
  for (const io::JsonValue& ev : doc.at("traceEvents").as_array()) {
    if (!ev.contains("dur")) continue;
    const std::string& cat = ev.at("cat").as_string();
    const std::string& name = ev.at("name").as_string();
    const double dur_s = ev.at("dur").as_number() * 1e-6;
    if (cat == "lppm" && name == "protect_dataset") split.protect_s += dur_s;
    if (cat == "metrics" && name == system.privacy->name()) split.privacy_s += dur_s;
    if (cat == "metrics" && name == system.utility->name()) split.utility_s += dur_s;
    if (cat == "cache" && name == "artifact_build") split.artifact_builds += 1.0;
  }
  const io::JsonValue& counters = doc.at("otherData").at("counters");
  if (counters.contains("artifact_cache.hits")) {
    split.cache_hits = counters.at("artifact_cache.hits").as_number();
  }
  if (counters.contains("artifact_cache.misses")) {
    split.cache_misses = counters.at("artifact_cache.misses").as_number();
  }
  return split;
}

/// The designer's objectives, derived from the fitted model the way the
/// paper's case study reads its figure: a POI-retrieval ceiling a
/// quarter of the way into the fitted span, plus a utility floor 0.05
/// below what the model predicts at that ceiling — feasible by
/// construction on any fleet the model fits.
std::vector<core::Objective> objectives_for(const core::LppmModel& model) {
  const double lo = std::min(model.privacy.metric_at_low, model.privacy.metric_at_high);
  const double hi = std::max(model.privacy.metric_at_low, model.privacy.metric_at_high);
  const double pr_target = lo + 0.25 * (hi - lo);
  const double ut_at_target =
      model.utility.predict(model.privacy.invert(pr_target, model.scale), model.scale);
  return {{core::Axis::kPrivacy, core::Sense::kAtMost, pr_target},
          {core::Axis::kUtility, core::Sense::kAtLeast, ut_at_target - 0.05}};
}

struct Answer {
  double rss_mb = 0.0;  ///< peak resident set over this answer
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sweep_s = 0.0;
  double fit_s = 0.0;
  double invert_s = 0.0;
  bool feasible = false;
  double epsilon = 0.0;
  core::SweepResult sweep;
  LayerSplit layers;
};

bool same_point(const core::SweepPoint& a, const core::SweepPoint& b) {
  const double va[] = {a.parameter_value, a.privacy_mean, a.privacy_stddev, a.utility_mean,
                       a.utility_stddev};
  const double vb[] = {b.parameter_value, b.privacy_mean, b.privacy_stddev, b.utility_mean,
                       b.utility_stddev};
  return std::memcmp(va, vb, sizeof va) == 0;
}

bool same_sweep(const core::SweepResult& a, const core::SweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (!same_point(a.points[i], b.points[i])) return false;
  }
  return true;
}

}  // namespace

Result run_configure(const Options& opt) {
  Result res;
  const std::string path = opt.work_dir + "/fleet-" + std::to_string(opt.seed) + ".lpds";
  build_fleet_file(path, opt.seed);

  // Set-up: what a designer pays before the first answer.
  std::vector<double> setup_s;
  std::vector<double> load_s;
  locpriv::trace::Dataset data;
  core::SystemDefinition system;
  for (int i = 0; i < kSetupReps; ++i) {
    Span span("setup", "configure-geoi");
    const Clock::time_point t0 = Clock::now();
    {
      Span load("trace", "load_dataset");
      data = locpriv::trace::load_dataset(path);
    }
    const Clock::time_point t1 = Clock::now();
    {
      Span define("core", "make_geo_i_system");
      system = core::make_geo_i_system(kSweepPoints);
    }
    load_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_since(t0));
  }
  const std::size_t events = data.total_events();

  core::ExperimentConfig cfg;
  cfg.trials = kTrials;
  cfg.threads = kThreads;
  cfg.seed = locpriv::stats::derive_seed(opt.seed, 0xC0F16);

  const auto answer_once = [&](bool traced) {
    Answer a;
    cfg.artifact_cache = std::make_shared<locpriv::metrics::ArtifactCache>();
    const bool rss_reset = reset_peak_rss();
    locpriv::obs::Tracer& tracer = locpriv::obs::Tracer::instance();
    if (traced) tracer.enable();
    {
      Span span("core", "configure_answer");
      const double cpu0 = process_cpu_s();
      const Clock::time_point t0 = Clock::now();
      {
        Span s("core", "run_sweep");
        a.sweep = core::run_sweep(system, data, cfg);
      }
      const Clock::time_point t1 = Clock::now();
      core::LppmModel model;
      {
        Span s("core", "fit_loglinear_model");
        model = core::fit_loglinear_model(a.sweep);
      }
      const Clock::time_point t2 = Clock::now();
      {
        Span s("core", "configure");
        const std::vector<core::Objective> objectives = objectives_for(model);
        const core::Configuration c = core::Configurator(model).configure(objectives);
        a.feasible = c.feasible && c.interval.contains(c.recommended);
        a.epsilon = c.recommended;
      }
      const Clock::time_point t3 = Clock::now();
      a.cpu_s = process_cpu_s() - cpu0;
      a.wall_s = seconds_between(t0, t3);
      a.sweep_s = seconds_between(t0, t1);
      a.fit_s = seconds_between(t1, t2);
      a.invert_s = seconds_between(t2, t3);
    }
    a.rss_mb = rss_reset ? peak_rss_mb() : 0.0;
    if (traced) {
      tracer.disable();
      a.layers = read_tracer(system);
      tracer.reset();
    }
    return a;
  };

  Stalls stalls = probe_stalls(0.2);
  std::vector<Answer> plain;
  std::vector<Answer> traced;
  const Clock::time_point start = Clock::now();
  const double plain_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  while (static_cast<int>(plain.size()) < kMinAnswers || seconds_since(start) < plain_budget) {
    plain.push_back(answer_once(false));
  }
  if (opt.trace) {
    merge_stalls(stalls, probe_stalls(0.2));
    const Clock::time_point half = Clock::now();
    while (static_cast<int>(traced.size()) < kMinAnswers ||
           seconds_since(half) < opt.seconds - plain_budget) {
      traced.push_back(answer_once(true));
    }
  }

  // Output checks.
  std::vector<const Answer*> all;
  for (const Answer& a : plain) all.push_back(&a);
  for (const Answer& a : traced) all.push_back(&a);
  const core::SweepResult& ref = plain.front().sweep;
  bool feasible = true;
  bool repeatable = ref.points.size() == kSweepPoints;
  for (const Answer* a : all) {
    res.attempted += 1;
    if (!a->feasible) {
      res.failed += 1;
      feasible = false;
    }
    repeatable = repeatable && same_sweep(a->sweep, ref);
  }
  res.check("configure.feasible_epsilon", feasible);
  res.check("configure.sweep_repeatable", repeatable);
  // Two sampled points, recomputed single-threaded from the point's
  // derived seed, must match the 4-thread sweep bit for bit.
  const std::size_t p1 = opt.seed % kSweepPoints;
  const std::size_t p2 = (p1 + 1 + (opt.seed / kSweepPoints) % (kSweepPoints - 1)) % kSweepPoints;
  bool identical = true;
  for (const std::size_t p : {p1, p2}) {
    Span span("core", "evaluate_point");
    const core::SweepPoint point = core::evaluate_point(
        system, data, ref.points[p].parameter_value, kTrials,
        locpriv::stats::derive_seed(cfg.seed, p),
        std::make_shared<locpriv::metrics::ArtifactCache>(), /*threads=*/1);
    identical = identical && same_point(point, ref.points[p]);
  }
  res.check("configure.sampled_points_bit_identical", identical);

  std::vector<double> wall;
  std::vector<double> cpu;
  for (const Answer& a : plain) {
    wall.push_back(a.wall_s);
    cpu.push_back(a.cpu_s);
  }
  const double configure_s = median(wall);
  const double configure_cpu_s = median(cpu);
  // Median over answers of each answer's own peak, when the kernel lets
  // the mark be reset; the process-lifetime peak otherwise.
  std::vector<double> rss;
  for (const Answer& a : plain) rss.push_back(a.rss_mb);
  const double rss_mb = rss.front() > 0.0 ? median(rss) : peak_rss_mb();
  const double tasks = static_cast<double>(kSweepPoints * kTrials);

  if (!opt.trace) {
    res.metric("setup_s", median(setup_s), "s");
    res.metric("answer_ms", configure_s * 1e3, "ms");
    res.metric("cpu_ms_per_answer", configure_cpu_s * 1e3, "ms");
    res.metric("peak_rss_mb", rss_mb, "MB");
  } else {
    const auto med = [&](auto field) {
      std::vector<double> v;
      for (const Answer& a : traced) v.push_back(field(a));
      return median(v);
    };
    const double protect_s = med([](const Answer& a) { return a.layers.protect_s; });
    const double hits = med([](const Answer& a) { return a.layers.cache_hits; });
    const double misses = med([](const Answer& a) { return a.layers.cache_misses; });
    res.metric("trace.load_s", median(load_s), "s");
    res.metric("lppm.protect_s", protect_s, "s");
    res.metric("lppm.events_per_s",
               protect_s > 0 ? static_cast<double>(events) * tasks / protect_s : 0.0, "1/s");
    res.metric("metrics.privacy_s", med([](const Answer& a) { return a.layers.privacy_s; }), "s");
    res.metric("metrics.utility_s", med([](const Answer& a) { return a.layers.utility_s; }), "s");
    res.metric("metrics.artifact_builds",
               med([](const Answer& a) { return a.layers.artifact_builds; }), "count");
    res.metric("metrics.artifact_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "ratio");
    res.metric("core.fit_s", med([](const Answer& a) { return a.fit_s; }), "s");
    res.metric("core.invert_s", med([](const Answer& a) { return a.invert_s; }), "s");
    res.metric("core.cpu_util", configure_cpu_s / (static_cast<double>(kThreads) * configure_s),
               "ratio");
    res.metric("obs.trace_overhead", med([](const Answer& a) { return a.wall_s; }) - configure_s,
               "s");
    res.metric("host.stall_frac", stalls.frac, "ratio");
    res.metric("host.stall_max_ms", stalls.max_ms, "ms");
    res.metric("host.ref_loop_ms", stalls.ref_loop_ms, "ms");
  }

  io::JsonObject d;
  d["fleet_cabs"] = kFleetCabs;
  d["fleet_events"] = events;
  d["sweep_points"] = kSweepPoints;
  d["trials"] = kTrials;
  d["threads"] = kThreads;
  d["answers_untraced"] = plain.size();
  d["answers_traced"] = traced.size();
  d["setup_samples"] = setup_s.size();
  d["setup_s"] = median(setup_s);
  d["configure_s"] = configure_s;
  d["configure_cpu_s"] = configure_cpu_s;
  d["sweep_s"] = median([&] {
    std::vector<double> v;
    for (const Answer& a : plain) v.push_back(a.sweep_s);
    return v;
  }());
  d["peak_rss_mb"] = rss_mb;
  io::JsonArray answer_s;
  for (const Answer* a : all) answer_s.emplace_back(a->wall_s);
  d["answer_s"] = std::move(answer_s);
  d["fail_frac"] = static_cast<double>(res.failed) / static_cast<double>(res.attempted);
  d["recommended_epsilon"] = plain.front().epsilon;
  d["privacy_metric"] = system.privacy->name();
  d["utility_metric"] = system.utility->name();
  // The last answer's actual-side cache (ArtifactCache::stats()); the
  // traced per-layer hit rate also counts every per-trial protected-side
  // cache, which the library keeps private.
  const auto stats = cfg.artifact_cache->stats();
  d["actual_cache_hits"] = static_cast<double>(stats.hits);
  d["actual_cache_misses"] = static_cast<double>(stats.misses);
  d["host_stall_frac"] = stalls.frac;
  d["host_stall_max_ms"] = stalls.max_ms;
  d["host_ref_loop_ms"] = stalls.ref_loop_ms;
  res.detail = std::move(d);
  return res;
}

}  // namespace perfbench
