#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/require.hpp"
#include "util/units.hpp"

namespace s3asim::util {

BoxHistogram::BoxHistogram(std::vector<HistogramBin> bins)
    : bins_(std::move(bins)) {
  S3A_REQUIRE_MSG(!bins_.empty(), "box histogram needs at least one bin");
  min_ = bins_.front().lo;
  max_ = bins_.front().hi;
  double weighted_value_sum = 0.0;
  cumulative_.reserve(bins_.size());
  for (const auto& bin : bins_) {
    S3A_REQUIRE_MSG(bin.lo <= bin.hi, "histogram bin with lo > hi");
    S3A_REQUIRE_MSG(bin.weight >= 0.0, "histogram bin with negative weight");
    total_weight_ += bin.weight;
    cumulative_.push_back(total_weight_);
    const double mid =
        (static_cast<double>(bin.lo) + static_cast<double>(bin.hi)) / 2.0;
    weighted_value_sum += mid * bin.weight;
    min_ = std::min(min_, bin.lo);
    max_ = std::max(max_, bin.hi);
  }
  S3A_REQUIRE_MSG(total_weight_ > 0.0 && std::isfinite(total_weight_),
                  "histogram total weight must be finite and > 0");
  mean_ = weighted_value_sum / total_weight_;
}

std::uint64_t BoxHistogram::sample(Xoshiro256& rng) const {
  S3A_REQUIRE_MSG(!bins_.empty(), "sampling an empty histogram");
  const double draw = rng.uniform() * total_weight_;
  // The bin is the number of cumulative weights <= draw: on this
  // non-decreasing array that is the index upper_bound returns, counted
  // without a branch.
  std::size_t idx = 0;
  for (const double edge : cumulative_) idx += edge <= draw ? 1 : 0;
  const auto& bin = bins_[std::min(idx, bins_.size() - 1)];
  return rng.uniform_u64(bin.lo, bin.hi);
}

double BoxHistogram::quantile(double q) const {
  S3A_REQUIRE(q >= 0.0 && q <= 1.0);
  const double target = q * total_weight_;
  double before = 0.0;
  for (const auto& bin : bins_) {
    if (before + bin.weight >= target || &bin == &bins_.back()) {
      const double frac =
          bin.weight > 0.0 ? (target - before) / bin.weight : 0.0;
      const double clamped = std::clamp(frac, 0.0, 1.0);
      return static_cast<double>(bin.lo) +
             clamped * (static_cast<double>(bin.hi) - static_cast<double>(bin.lo));
    }
    before += bin.weight;
  }
  return static_cast<double>(max_);
}

std::string BoxHistogram::describe() const {
  std::ostringstream out;
  out << "box histogram: " << bins_.size() << " bins, range ["
      << format_bytes(min_) << ", " << format_bytes(max_)
      << "], mean " << format_bytes(static_cast<std::uint64_t>(mean_)) << "\n";
  for (const auto& bin : bins_) {
    out << "  [" << bin.lo << ", " << bin.hi << "]  weight "
        << bin.weight / total_weight_ << "\n";
  }
  return out.str();
}

BoxHistogram build_histogram(std::span<const std::uint64_t> values,
                             unsigned bin_count) {
  S3A_REQUIRE_MSG(!values.empty(), "cannot build a histogram from no values");
  S3A_REQUIRE(bin_count >= 1);
  const auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  const std::uint64_t lo = *min_it;
  const std::uint64_t hi = *max_it;
  if (lo == hi) {
    return BoxHistogram{{HistogramBin{lo, hi, 1.0}}};
  }
  // Geometric bin edges suit the heavy-tailed length distributions of
  // sequence databases far better than linear ones.
  const double log_lo = std::log(static_cast<double>(std::max<std::uint64_t>(lo, 1)));
  const double log_hi = std::log(static_cast<double>(hi) + 1.0);
  std::vector<HistogramBin> bins;
  bins.reserve(bin_count);
  std::uint64_t edge = lo;
  for (unsigned i = 0; i < bin_count; ++i) {
    const double t = static_cast<double>(i + 1) / static_cast<double>(bin_count);
    auto next = static_cast<std::uint64_t>(
        std::llround(std::exp(log_lo + t * (log_hi - log_lo))));
    next = std::max(next, edge + 1);
    const std::uint64_t bin_hi = (i + 1 == bin_count) ? hi : next - 1;
    bins.push_back(HistogramBin{edge, std::max(bin_hi, edge), 0.0});
    edge = std::max(bin_hi, edge) + 1;
    if (edge > hi) break;
  }
  for (const std::uint64_t v : values) {
    const auto it = std::partition_point(
        bins.begin(), bins.end(),
        [v](const HistogramBin& b) { return b.hi < v; });
    if (it != bins.end()) it->weight += 1.0;
  }
  std::erase_if(bins, [](const HistogramBin& b) { return b.weight == 0.0; });
  return BoxHistogram{std::move(bins)};
}

const BoxHistogram& nt_database_histogram() {
  // Reconstruction of the NCBI NT length distribution with the paper's
  // stated statistics: min 6 B, max slightly over 43 MB, mean ≈ 4401 B.
  static const BoxHistogram hist{{
      {6, 100, 0.045},
      {101, 300, 0.110},
      {301, 800, 0.230},
      {801, 1'500, 0.250},
      {1'501, 3'000, 0.200},
      {3'001, 8'000, 0.100},
      {8'001, 20'000, 0.040},
      {20'001, 60'000, 0.015},
      {60'001, 200'000, 0.004},
      {200'001, 1'000'000, 0.0018},
      // NT's multi-megabyte tail exists (max slightly over 43 MB) but such
      // sequences are a vanishing fraction of the ~3M entries; with ~30k
      // samples per run the expected count here is ~0.03, matching a real
      // draw where a 43 MB subject almost never appears.
      {1'000'001, 43'131'105, 0.000001},
  }};
  return hist;
}

const BoxHistogram& nt_query_histogram() {
  // "We used the same histogram to represent our input query set of 20
  // queries (roughly maps to approximately 86 KBytes of input queries)" —
  // i.e. a mean query length in the 4 KiB range; the extreme multi-MB tail
  // cannot appear in an 86 KiB / 20-query set, so it is truncated here.
  static const BoxHistogram hist{{
      {6, 100, 0.030},
      {101, 300, 0.080},
      {301, 800, 0.200},
      {801, 1'500, 0.220},
      {1'501, 3'000, 0.200},
      {3'001, 8'000, 0.150},
      {8'001, 20'000, 0.090},
      {20'001, 43'000, 0.040},
  }};
  return hist;
}

}  // namespace s3asim::util
