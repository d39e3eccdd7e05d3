// Aligned console tables — the bench binaries print the paper's
// tables/series through this.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace locpriv::io {

/// Column-aligned text table. Numeric-looking cells are right-aligned,
/// everything else left-aligned.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds a row; must match the header width (throws otherwise).
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with `precision` significant digits.
  [[nodiscard]] static std::string num(double v, int precision = 4);
  /// Convenience: "[lo, hi]" with both ends formatted as num().
  [[nodiscard]] static std::string interval(double lo, double hi, int precision = 4);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Renders with a separator under the header.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace locpriv::io
