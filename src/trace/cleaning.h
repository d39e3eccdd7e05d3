// Trace cleaning: the preprocessing a real pipeline runs before any
// analysis, undoing the damage synth::inject_faults models — teleport
// glitches, stuck-receiver duplicates. (Outages cannot be undone.)
#pragma once

#include "trace/dataset.h"
#include "trace/trace.h"

namespace locpriv::trace {

struct CleaningConfig {
  /// Reports implying a travel speed above this (m/s) from the previous
  /// accepted report are dropped as glitches. 50 m/s = 180 km/h, above
  /// anything urban. Set <= 0 to disable.
  double max_speed_mps = 50.0;
  /// Drop a report identical in timestamp and position to its
  /// predecessor (stuck receiver).
  bool drop_duplicates = true;
};

struct CleaningStats {
  std::size_t input_events = 0;
  std::size_t speed_rejected = 0;
  std::size_t duplicates_dropped = 0;
  [[nodiscard]] std::size_t kept() const {
    return input_events - speed_rejected - duplicates_dropped;
  }
};

/// Cleans one trace; `stats_out` (optional) receives the tallies.
/// The first report is always kept (there is no speed reference).
[[nodiscard]] Trace clean_trace(const Trace& t, const CleaningConfig& cfg,
                                CleaningStats* stats_out = nullptr);

/// Cleans every trace of a dataset; aggregate tallies via `stats_out`.
[[nodiscard]] Dataset clean_dataset(const Dataset& d, const CleaningConfig& cfg,
                                    CleaningStats* stats_out = nullptr);

}  // namespace locpriv::trace
