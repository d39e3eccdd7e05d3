// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "trace/dataset.h"
#include "trace/trace.h"

namespace locpriv::testutil {

/// A fresh directory private to the running test, removed with its
/// contents when the object goes out of scope. ctest runs every test
/// case in its own process, possibly next to other cases of the same
/// suite, so files must not share fixed names under the common temp
/// directory: this one is named after the test's full name, the process
/// id and a per-process sequence number.
class ScratchDir {
 public:
  ScratchDir() {
    static std::atomic<unsigned> sequence{0};
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info != nullptr
                           ? std::string(info->test_suite_name()) + "." + info->name()
                           : std::string("no_test");
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("locpriv_" + name + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(sequence++));
    std::filesystem::remove_all(dir_);  // left by an earlier process with this pid
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

  /// Path of the file `name` inside the directory.
  [[nodiscard]] std::string path(const std::string& name) const { return (dir_ / name).string(); }

 private:
  std::filesystem::path dir_;
};

/// A trace that sits at `where` from t=0 for `duration_s`, reporting
/// every `interval_s`.
inline trace::Trace stationary_trace(const std::string& user, geo::Point where,
                                     trace::Timestamp duration_s,
                                     trace::Timestamp interval_s = 60) {
  trace::Trace t(user);
  for (trace::Timestamp ts = 0; ts <= duration_s; ts += interval_s) t.append({ts, where});
  return t;
}

/// A trace moving in a straight line from `a` to `b` over `duration_s`.
inline trace::Trace line_trace(const std::string& user, geo::Point a, geo::Point b,
                               trace::Timestamp duration_s, trace::Timestamp interval_s = 60) {
  trace::Trace t(user);
  for (trace::Timestamp ts = 0; ts <= duration_s; ts += interval_s) {
    const double frac = duration_s > 0
                            ? static_cast<double>(ts) / static_cast<double>(duration_s)
                            : 0.0;
    t.append({ts, geo::lerp(a, b, frac)});
  }
  return t;
}

/// A two-stop "commute" trace: stay at `home`, travel, stay at `work`.
/// Both stays exceed typical POI thresholds (default: 30 min stays).
inline trace::Trace two_stop_trace(const std::string& user, geo::Point home, geo::Point work,
                                   trace::Timestamp stay_s = 1800,
                                   trace::Timestamp interval_s = 60) {
  trace::Trace t(user);
  trace::Timestamp now = 0;
  for (; now <= stay_s; now += interval_s) t.append({now, home});
  const trace::Timestamp travel = 600;
  const trace::Timestamp travel_end = now + travel;
  for (; now < travel_end; now += interval_s) {
    const double frac = 1.0 - static_cast<double>(travel_end - now) / static_cast<double>(travel);
    t.append({now, geo::lerp(home, work, frac)});
  }
  const trace::Timestamp end = now + stay_s;
  for (; now <= end; now += interval_s) t.append({now, work});
  return t;
}

/// Dataset of `n` users, each a two-stop trace with distinct sites.
inline trace::Dataset two_stop_dataset(std::size_t n, double spacing_m = 3000.0) {
  trace::Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const double off = static_cast<double>(i) * spacing_m;
    d.add(two_stop_trace(std::string("u").append(std::to_string(i)), {off, 0.0}, {off, 2000.0}));
  }
  return d;
}

}  // namespace locpriv::testutil
