// One codec for the comma-separated `key=value` specs: the serving
// runtime's --faults and --objectives, which also arrive from the wire
// inside every reload frame.
//
// A spec type names each key once, as one SpecKey row (key name + the
// member it sets). Parsing, printing, the key list in help text and the
// unknown-key error all read that table. Every value is checked against
// its field before it is stored: a number must be finite, and an
// integer field takes only a whole number its type can hold, so no input
// reaches an undefined float-to-integer cast. Violations throw
// std::invalid_argument naming the key; cross-field rules stay with the
// spec's own validate().
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "io/numeric.h"

namespace locpriv::io {

/// One key of a spec and the member of `Spec` its value sets.
template <class Spec>
struct SpecKey {
  const char* name;
  std::variant<double Spec::*, std::uint32_t Spec::*, std::uint64_t Spec::*,
               std::int64_t Spec::*, std::string Spec::*>
      field;
};

/// The key names in table order, comma-joined ("a, b, c").
template <class Spec, std::size_t N>
[[nodiscard]] std::string spec_keys(const SpecKey<Spec> (&keys)[N]) {
  std::string out;
  for (const SpecKey<Spec>& key : keys) {
    if (!out.empty()) out += ", ";
    out += key.name;
  }
  return out;
}

/// Parses "k=v,k=v,..." into a default-constructed Spec: empty items
/// are skipped and a repeated key keeps its last value. Throws
/// std::invalid_argument, prefixed with `what`, on an item without '=',
/// an unknown key, or a value its field cannot hold.
template <class Spec, std::size_t N>
[[nodiscard]] Spec parse_spec(std::string_view text, const SpecKey<Spec> (&keys)[N],
                              std::string_view what) {
  Spec out;
  const auto fail = [&](const std::string& message) {
    return std::invalid_argument(std::string(what) + ": " + message);
  };
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw fail("expected key=value, got '" + std::string(item) + "'");
    }
    const std::string_view name = item.substr(0, eq);
    const std::string value(item.substr(eq + 1));
    const SpecKey<Spec>* key = nullptr;
    for (const SpecKey<Spec>& k : keys) {
      if (name == k.name) {
        key = &k;
        break;
      }
    }
    if (key == nullptr) {
      throw fail("unknown key '" + std::string(name) + "' (" + spec_keys(keys) + ")");
    }
    std::visit(
        [&](auto member) {
          using T = std::remove_reference_t<decltype(out.*member)>;
          const auto bad = [&](const std::string& need) {
            return fail("bad value for '" + std::string(name) + "': '" + value + "' (need " +
                        need + ")");
          };
          if constexpr (std::is_same_v<T, std::string>) {
            out.*member = value;
          } else {
            const std::optional<double> num = parse_double(value);
            if (!num.has_value() || !std::isfinite(*num)) throw bad("a finite number");
            if constexpr (std::is_floating_point_v<T>) {
              out.*member = *num;
            } else {
              const std::optional<T> whole = to_integer<T>(*num);
              if (!whole.has_value()) {
                throw bad("a whole number in [" + std::to_string(std::numeric_limits<T>::min()) +
                          ", " + std::to_string(std::numeric_limits<T>::max()) + "]");
              }
              out.*member = *whole;
            }
          }
        },
        key->field);
  }
  return out;
}

/// Canonical text of `spec`: the keys whose value differs from a
/// default-constructed Spec, in table order (NaN equals NaN, so an
/// unset NaN default stays out). Numbers print with format_double, so
/// parse_spec(format_spec(x)) reproduces every field.
template <class Spec, std::size_t N>
[[nodiscard]] std::string format_spec(const Spec& spec, const SpecKey<Spec> (&keys)[N]) {
  const Spec defaults{};
  std::string out;
  const auto emit = [&out](const char* name, const std::string& text) {
    if (!out.empty()) out += ',';
    out.append(name).append("=").append(text);
  };
  for (const SpecKey<Spec>& key : keys) {
    std::visit(
        [&](auto member) {
          const auto& value = spec.*member;
          const auto& initial = defaults.*member;
          using T = std::remove_cvref_t<decltype(value)>;
          if constexpr (std::is_same_v<T, std::string>) {
            if (value != initial) emit(key.name, value);
          } else if constexpr (std::is_floating_point_v<T>) {
            if (value != initial && !(std::isnan(value) && std::isnan(initial))) {
              emit(key.name, format_double(value));
            }
          } else if (value != initial) {
            emit(key.name, format_double(static_cast<double>(value)));
          }
        },
        key.field);
  }
  return out;
}

}  // namespace locpriv::io
