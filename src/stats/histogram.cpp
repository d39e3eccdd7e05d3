#include "stats/histogram.h"

#include <cmath>
#include <stdexcept>

namespace locpriv::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
  if (bins == 0) throw std::invalid_argument("Histogram: need at least one bin");
}

void Histogram::add(double x) {
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const auto bin = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size()));
  ++counts_[bin < counts_.size() ? bin : counts_.size() - 1];
  ++total_;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

double Histogram::probability(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(bin)) / static_cast<double>(total_);
}

double Histogram::quantile(double q) const {
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("Histogram::quantile: q in [0, 1]");
  const std::size_t n = underflow_ + total_ + overflow_;
  if (n == 0) throw std::logic_error("Histogram::quantile: empty histogram");
  // Rank among ALL samples so that out-of-range mass saturates the
  // estimate at the histogram bounds instead of being ignored. The
  // lo-saturation branch requires actual underflow mass: with
  // underflow == 0 a rank-0 quantile must fall where the real mass
  // starts (the first occupied bin, or hi when everything overflowed),
  // not snap to lo.
  const double rank = q * static_cast<double>(n);
  if (underflow_ > 0 && rank <= static_cast<double>(underflow_)) return lo_;
  double seen = static_cast<double>(underflow_);
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto c = static_cast<double>(counts_[b]);
    if (seen + c >= rank && c > 0.0) {
      const double frac = (rank - seen) / c;
      return bin_lo(b) + frac * (bin_hi(b) - bin_lo(b));
    }
    seen += c;
  }
  return hi_;
}

double Histogram::entropy() const {
  double h = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double p = probability(b);
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

}  // namespace locpriv::stats
