#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace s3asim::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> values, double p) {
  S3A_REQUIRE(p >= 0.0 && p <= 100.0);
  S3A_REQUIRE_MSG(!values.empty(), "percentile of empty sample");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double coefficient_of_variation(std::span<const double> values) {
  RunningStats stats;
  for (const double v : values) stats.add(v);
  if (stats.count() == 0 || stats.mean() == 0.0) return 0.0;
  return stats.stddev() / stats.mean();
}

}  // namespace s3asim::util
