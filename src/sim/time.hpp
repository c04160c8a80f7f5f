#pragma once

/// \file time.hpp
/// Simulated-time representation.  Integer nanoseconds keep event ordering
/// exact and platform-independent (doubles would make event order depend on
/// rounding, breaking the bit-for-bit determinism the paper relies on).

#include <cstdint>

namespace s3asim::sim {

/// Simulated time / duration in nanoseconds.
using Time = std::int64_t;

inline constexpr Time kNanosecond = 1;
inline constexpr Time kMicrosecond = 1'000;
inline constexpr Time kMillisecond = 1'000'000;
inline constexpr Time kSecond = 1'000'000'000;

[[nodiscard]] constexpr Time nanoseconds(std::int64_t n) noexcept { return n; }

/// `std::llround(x)`, inline: the nearest integer, halves away from zero.
/// `x` must be finite with a rounded value that fits in 64 bits.
/// Truncation keeps the whole part and `x - whole` is the exact fraction,
/// so 0.49999999999999994 rounds to 0, where `floor(x + 0.5)` gives 1.
/// The two comparisons add without a branch: fractions of transfer times
/// fall either side of one half at random.
[[nodiscard]] constexpr std::int64_t round_nearest(double x) noexcept {
  const auto whole = static_cast<std::int64_t>(x);
  const double fraction = x - static_cast<double>(whole);
  return whole + (fraction >= 0.5) - (fraction <= -0.5);
}

[[nodiscard]] constexpr Time microseconds(double us) noexcept {
  return round_nearest(us * 1e3);
}

[[nodiscard]] constexpr Time milliseconds(double ms) noexcept {
  return round_nearest(ms * 1e6);
}

[[nodiscard]] constexpr Time seconds(double s) noexcept {
  return round_nearest(s * 1e9);
}

[[nodiscard]] constexpr double to_seconds(Time t) noexcept {
  return static_cast<double>(t) / 1e9;
}

[[nodiscard]] constexpr double to_milliseconds(Time t) noexcept {
  return static_cast<double>(t) / 1e6;
}

/// Duration of moving `bytes` at `bytes_per_second`, rounded to whole ns.
[[nodiscard]] constexpr Time transfer_time(std::uint64_t bytes,
                                           double bytes_per_second) noexcept {
  if (bytes_per_second <= 0.0) return 0;
  return round_nearest(static_cast<double>(bytes) / bytes_per_second * 1e9);
}

}  // namespace s3asim::sim
