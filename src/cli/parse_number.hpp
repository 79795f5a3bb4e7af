// Checked numeric parsing for every CLI flag and textual spec.
//
// Each parser takes the whole token or nothing.  "16x", "8.9" as an integer,
// " 5", "+5" and "" are refused; an unsigned type takes no sign, so "-1" is
// refused instead of wrapping to 2^64 - 1; the value is range-checked against
// the target type before any narrowing ("4294967298" is not a VertexId); and
// a double must be finite ("nan", "inf" and "1e999" are refused).  They
// return std::nullopt on refusal, and the caller names its flag or spec field
// in the error.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace divlib {

template <std::integral T>
std::optional<T> parse_integer(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) {
    return std::nullopt;
  }
  return value;
}

inline std::optional<double> parse_finite(std::string_view text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

// "expects an integer in [lo, hi]" for T, as the refusals phrase it.
template <std::integral T>
std::string integer_expectation() {
  return "expects an integer in [" +
         std::to_string(std::numeric_limits<T>::min()) + ", " +
         std::to_string(std::numeric_limits<T>::max()) + "]";
}

// A comma-separated flag value such as "--sizes 64,128": every field is
// parsed as a T, and the first one refused throws std::invalid_argument
// naming the flag and the field.
template <typename T>
std::vector<T> parse_list(const std::string& flag, std::string_view text) {
  std::vector<T> values;
  while (true) {
    const std::size_t comma = text.find(',');
    const std::string_view field = text.substr(0, comma);
    std::optional<T> value;
    std::string expectation = "expects finite numbers";
    if constexpr (std::integral<T>) {
      value = parse_integer<T>(field);
      expectation = integer_expectation<T>();
    } else {
      value = parse_finite(field);
    }
    if (!value) {
      throw std::invalid_argument(flag + " " + expectation + ", got '" +
                                  std::string(field) + "'");
    }
    values.push_back(*value);
    if (comma == std::string_view::npos) {
      return values;
    }
    text.remove_prefix(comma + 1);
  }
}

}  // namespace divlib
