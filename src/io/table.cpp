#include "io/table.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "io/numeric.h"

namespace locpriv::io {
namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' && c != '-' && c != '+' &&
        c != 'e' && c != 'E' && c != '%') {
      return false;
    }
  }
  return true;
}

}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) throw std::invalid_argument("Table: row width mismatch");
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) { return format_double(v, precision); }

std::string Table::interval(double lo, double hi, int precision) {
  std::string s = "[";
  s += num(lo, precision);
  s += ", ";
  s += num(hi, precision);
  s += ']';
  return s;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = widths[c] - row[c].size();
      if (c > 0) os << "  ";
      if (looks_numeric(row[c])) {
        os << std::string(pad, ' ') << row[c];
      } else {
        os << row[c] << std::string(pad, ' ');
      }
    }
    os << '\n';
  };

  print_row(header_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w;
  os << std::string(total + 2 * (widths.size() - 1), '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace locpriv::io
