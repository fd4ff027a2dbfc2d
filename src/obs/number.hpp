// obs number rendering: the one "%.17g" formatter behind every obs artifact
// (metrics CSV, stream JSONL, SLO alerts, Chrome trace counters and request
// weights, exemplar lines).
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <string_view>

namespace strings::obs {

/// Holds any double format_g17 renders; the longest, e.g.
/// "-2.2250738585072014e-308", is 24 characters.
inline constexpr std::size_t kG17Chars = 32;

/// Renders `v` exactly as printf("%.17g", v) does — the standard defines
/// to_chars(general, precision) by that conversion — without parsing a
/// format string or consulting the locale. %.17g round-trips every double,
/// and integral values render without a trailing ".0". Non-finite values
/// render as printf's do ("inf", "-inf", "nan", "-nan").
///
/// Most obs numbers are integral counters. Below 1e17 in magnitude %.17g
/// prints an integral value as exactly its integer digits (from 1e17 up it
/// switches to exponent form), so those take the integer to_chars, several
/// times cheaper than the general one. The range test comes before the
/// cast, so NaN, ±inf and values past long long never reach it; -0.0 takes
/// the general path, which keeps its sign.
inline std::string_view format_g17(double v, char (&buf)[kG17Chars]) {
  if (v > -1e17 && v < 1e17) {
    const auto n = static_cast<long long>(v);
    if (static_cast<double>(n) == v && !(n == 0 && std::signbit(v))) {
      const auto r = std::to_chars(buf, buf + kG17Chars, n);
      return {buf, static_cast<std::size_t>(r.ptr - buf)};
    }
  }
  const auto r = std::to_chars(buf, buf + kG17Chars, v,
                               std::chars_format::general, 17);
  return {buf, static_cast<std::size_t>(r.ptr - buf)};
}

}  // namespace strings::obs
