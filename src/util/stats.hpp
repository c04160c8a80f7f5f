#pragma once

/// \file stats.hpp
/// Small online/offline statistics helpers used by the phase-timing report
/// and the benchmark harness (mean / stddev / min / max / percentiles).

#include <cstddef>
#include <span>
#include <vector>

namespace s3asim::util {

/// Welford online accumulator — numerically stable mean/variance.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolated percentile of an unsorted sample, p in [0, 100].
[[nodiscard]] double percentile(std::span<const double> values, double p);

/// Coefficient of variation (stddev / mean); 0 when mean is 0.
[[nodiscard]] double coefficient_of_variation(std::span<const double> values);

}  // namespace s3asim::util
