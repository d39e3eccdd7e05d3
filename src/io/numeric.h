// Locale-independent numeric parsing and formatting.
//
// std::stod / std::stoll / printf-family formatting honor the process
// locale: under a comma-decimal locale (de_DE, fr_FR, ...) "0.5" stops
// parsing at the dot and 0.5 formats as "0,5". Every number this
// framework serializes — model coefficients, sweep JSON, telemetry,
// golden fixtures — must round-trip byte-identically regardless of the
// host locale, so all numeric I/O goes through these std::from_chars /
// std::to_chars wrappers instead. They always use the JSON/C-locale
// convention ('.' decimal point, no grouping).
#pragma once

#include <cmath>
#include <concepts>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace locpriv::io {

/// Parses a double from the WHOLE of `s` (no leading whitespace, no
/// trailing characters). Returns nullopt on any syntax error. Accepts
/// the JSON/strtod number forms: [-]digits[.digits][(e|E)[+|-]digits],
/// plus "inf"/"nan" spellings from_chars accepts.
[[nodiscard]] std::optional<double> parse_double(std::string_view s);

/// Parses a decimal signed 64-bit integer from the whole of `s`.
[[nodiscard]] std::optional<long long> parse_int64(std::string_view s);

/// `v` as a T when it is a whole number T can hold, else nullopt (NaN,
/// infinities, fractions, out of range). The range check comes before
/// the cast: casting a double outside T's range is undefined behaviour.
template <std::integral T>
[[nodiscard]] std::optional<T> to_integer(double v) {
  // 2^digits is max(T) + 1, a power of two every double holds exactly.
  const double end = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double begin = std::numeric_limits<T>::is_signed ? -end : 0.0;
  if (!(v >= begin && v < end) || v != std::trunc(v)) return std::nullopt;
  return static_cast<T>(v);
}

/// Parses a double from the front of `s`, returning the number of
/// characters consumed through `consumed` (0 on failure). The partial
/// -parse primitive the JSON parser builds on.
[[nodiscard]] std::optional<double> parse_double_prefix(std::string_view s,
                                                        std::size_t& consumed);

/// Formats like printf("%.*g", precision, v) in the C locale:
/// `precision` significant digits, shortest of fixed/scientific.
/// precision 17 round-trips every finite double exactly.
[[nodiscard]] std::string format_double(double v, int precision = 17);

/// Formats like printf("%.*f", decimals, v) in the C locale.
[[nodiscard]] std::string format_double_fixed(double v, int decimals);

}  // namespace locpriv::io
