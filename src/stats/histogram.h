// Fixed-bin histogram over [lo, hi) — used for distributional tests and
// the spatial-entropy metric.
#pragma once

#include <cstddef>
#include <vector>

namespace locpriv::stats {

/// Uniform-bin histogram. Values outside [lo, hi) are counted in the
/// under-/overflow tallies, never silently dropped.
class Histogram {
 public:
  /// Requires lo < hi and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;

  /// Empirical probability of a bin among in-range samples (0 if none).
  [[nodiscard]] double probability(std::size_t bin) const;

  /// Shannon entropy (nats) of the in-range bin distribution.
  [[nodiscard]] double entropy() const;

  /// Approximate q-quantile (q in [0, 1]) of the in-range samples,
  /// interpolated linearly inside the containing bin. Samples counted in
  /// the overflow tally pull high quantiles to hi (the histogram cannot
  /// resolve beyond its range); underflow symmetric at lo. Requires at
  /// least one sample (in-range or out); throws std::logic_error when
  /// empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace locpriv::stats
