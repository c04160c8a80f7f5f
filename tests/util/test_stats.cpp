#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace {

using s3asim::util::coefficient_of_variation;
using s3asim::util::percentile;
using s3asim::util::RunningStats;

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownVariance) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStatsTest, MinMaxSum) {
  RunningStats s;
  for (const double v : {3.0, -1.0, 7.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
  EXPECT_DOUBLE_EQ(s.sum(), 9.0);
}

TEST(PercentileTest, MedianOfOddSample) {
  const std::vector<double> v{5, 1, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(PercentileTest, InterpolatesBetweenValues) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
}

TEST(PercentileTest, Extremes) {
  const std::vector<double> v{4, 8, 15, 16, 23, 42};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 42.0);
}

TEST(PercentileTest, RejectsEmptyAndBadP) {
  EXPECT_THROW((void)percentile({}, 50), std::invalid_argument);
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile(v, 101), std::invalid_argument);
}

TEST(CoefficientOfVariationTest, ZeroForConstant) {
  const std::vector<double> v{5, 5, 5};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(v), 0.0);
}

TEST(CoefficientOfVariationTest, ScaleInvariant) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{10, 20, 30};
  EXPECT_NEAR(coefficient_of_variation(a), coefficient_of_variation(b), 1e-12);
}

}  // namespace
