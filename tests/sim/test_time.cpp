/// sim::round_nearest against std::llround: the inline rounding every
/// simulated duration goes through must give exactly libm's result, or
/// event times (and so every simulated output) would move.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "sim/time.hpp"

namespace {

using s3asim::sim::round_nearest;

void expect_llround(double x) {
  EXPECT_EQ(round_nearest(x), std::llround(x)) << std::hexfloat << x;
}

TEST(RoundNearestTest, TiesRoundAwayFromZero) {
  for (std::int64_t k = -1000; k <= 1000; ++k) {
    expect_llround(static_cast<double>(k) + 0.5);
    expect_llround(static_cast<double>(k) - 0.5);
    expect_llround(static_cast<double>(k));
  }
  EXPECT_EQ(round_nearest(2.5), 3);
  EXPECT_EQ(round_nearest(-2.5), -3);
  EXPECT_EQ(round_nearest(0.5), 1);
  EXPECT_EQ(round_nearest(-0.5), -1);
}

TEST(RoundNearestTest, JustBelowAHalfRoundsDown) {
  // The largest double below 0.5: floor(x + 0.5) would give 1.
  const double below_half = std::nextafter(0.5, 0.0);
  EXPECT_EQ(below_half, 0.49999999999999994);
  expect_llround(below_half);
  expect_llround(-below_half);
  EXPECT_EQ(round_nearest(below_half), 0);
  for (std::int64_t k = 0; k < 64; ++k) {
    const double half = static_cast<double>(k) + 0.5;
    expect_llround(std::nextafter(half, 0.0));
    expect_llround(std::nextafter(half, 1e300));
    expect_llround(-std::nextafter(half, 0.0));
  }
  expect_llround(0.0);
  expect_llround(-0.0);
  expect_llround(std::numeric_limits<double>::denorm_min());
}

TEST(RoundNearestTest, NearTwoToThe52And53) {
  // At 2^52 doubles stop holding fractions; at 2^53 odd integers go too.
  for (const double base : {0x1p52, 0x1p53}) {
    double x = base;
    for (int step = 0; step < 64; ++step) x = std::nextafter(x, 0.0);
    for (int step = 0; step < 128; ++step) {
      expect_llround(x);
      expect_llround(-x);
      x = std::nextafter(x, 1e300);
    }
  }
  expect_llround(0x1p52 - 0.5);
  expect_llround(0x1p52 + 1.0);
  expect_llround(0x1p62);
  expect_llround(-0x1p62);
}

TEST(RoundNearestTest, MatchesOnAMillionRandomDoubles) {
  std::mt19937_64 rng(20060627);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-60, 62);
  for (int i = 0; i < 1'000'000; ++i) {
    // Magnitudes from 2^-60 to 2^62, both signs, with the rounding-relevant
    // low bits of the mantissa random.
    const double x = std::ldexp(unit(rng), exponent(rng));
    ASSERT_EQ(round_nearest(x), std::llround(x)) << std::hexfloat << x;
  }
}

TEST(RoundNearestTest, DurationHelpersRoundLikeLlround) {
  using namespace s3asim::sim;
  EXPECT_EQ(microseconds(7.5), std::llround(7.5 * 1e3));
  EXPECT_EQ(milliseconds(0.0015), std::llround(0.0015 * 1e6));
  EXPECT_EQ(seconds(1.2345678905), std::llround(1.2345678905 * 1e9));
  EXPECT_EQ(transfer_time(1500, 1.25e8), std::llround(1500 / 1.25e8 * 1e9));
  EXPECT_EQ(transfer_time(1500, 0.0), 0);
}

}  // namespace
