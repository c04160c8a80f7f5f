#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using s3asim::util::BoxHistogram;
using s3asim::util::build_histogram;
using s3asim::util::HistogramBin;
using s3asim::util::nt_database_histogram;
using s3asim::util::nt_query_histogram;
using s3asim::util::Xoshiro256;

TEST(BoxHistogramTest, RejectsEmpty) {
  EXPECT_THROW(BoxHistogram{std::vector<HistogramBin>{}}, std::invalid_argument);
}

TEST(BoxHistogramTest, RejectsInvertedBin) {
  EXPECT_THROW((BoxHistogram{{HistogramBin{10, 5, 1.0}}}), std::invalid_argument);
}

TEST(BoxHistogramTest, RejectsNegativeWeight) {
  EXPECT_THROW((BoxHistogram{{HistogramBin{0, 5, -1.0}}}), std::invalid_argument);
}

TEST(BoxHistogramTest, RejectsZeroTotalWeight) {
  EXPECT_THROW((BoxHistogram{{HistogramBin{0, 5, 0.0}}}), std::invalid_argument);
}

TEST(BoxHistogramTest, RejectsInfiniteTotalWeight) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((BoxHistogram{{HistogramBin{0, 5, kInf}}}),
               std::invalid_argument);
  EXPECT_THROW((BoxHistogram{{HistogramBin{0, 5, 1e308},
                              HistogramBin{6, 9, 1e308}}}),
               std::invalid_argument);
}

TEST(BoxHistogramTest, SingleBinSamplesWithinRange) {
  const BoxHistogram hist{{HistogramBin{100, 200, 1.0}}};
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = hist.sample(rng);
    EXPECT_GE(v, 100u);
    EXPECT_LE(v, 200u);
  }
}

TEST(BoxHistogramTest, MeanOfUniformBin) {
  const BoxHistogram hist{{HistogramBin{0, 100, 1.0}}};
  EXPECT_DOUBLE_EQ(hist.mean(), 50.0);
}

TEST(BoxHistogramTest, MinMaxAcrossBins) {
  const BoxHistogram hist{{HistogramBin{50, 60, 1.0}, HistogramBin{5, 10, 2.0}}};
  EXPECT_EQ(hist.min_value(), 5u);
  EXPECT_EQ(hist.max_value(), 60u);
}

TEST(BoxHistogramTest, WeightsSteerSampling) {
  // 90% of the mass in [0,0], 10% in [100,100].
  const BoxHistogram hist{{HistogramBin{0, 0, 9.0}, HistogramBin{100, 100, 1.0}}};
  Xoshiro256 rng(2);
  int high = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i)
    if (hist.sample(rng) == 100) ++high;
  EXPECT_NEAR(static_cast<double>(high) / kSamples, 0.1, 0.02);
}

TEST(BoxHistogramTest, SampledMeanMatchesAnalyticMean) {
  const BoxHistogram hist{{HistogramBin{0, 100, 1.0}, HistogramBin{1000, 2000, 1.0}}};
  Xoshiro256 rng(3);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += static_cast<double>(hist.sample(rng));
  EXPECT_NEAR(sum / kSamples, hist.mean(), hist.mean() * 0.02);
}

TEST(BoxHistogramTest, QuantileEndpoints) {
  const BoxHistogram hist{{HistogramBin{10, 20, 1.0}, HistogramBin{30, 40, 1.0}}};
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 40.0);
}

TEST(BoxHistogramTest, QuantileMedianInterpolates) {
  const BoxHistogram hist{{HistogramBin{0, 100, 1.0}}};
  EXPECT_NEAR(hist.quantile(0.5), 50.0, 1.0);
}

TEST(BoxHistogramTest, QuantileRejectsOutOfRange) {
  const BoxHistogram hist{{HistogramBin{0, 100, 1.0}}};
  EXPECT_THROW((void)hist.quantile(1.5), std::invalid_argument);
}

TEST(BoxHistogramTest, DescribeMentionsBinCount) {
  const BoxHistogram hist{{HistogramBin{0, 10, 1.0}, HistogramBin{20, 30, 1.0}}};
  EXPECT_NE(hist.describe().find("2 bins"), std::string::npos);
}

TEST(NtHistogramTest, MatchesPaperStatedStatistics) {
  const auto& nt = nt_database_histogram();
  // Paper §3.3: min 6 B, max slightly over 43 MB, mean 4401 B.
  EXPECT_EQ(nt.min_value(), 6u);
  EXPECT_GT(nt.max_value(), 43'000'000u);
  EXPECT_LT(nt.max_value(), 44'000'000u);
  EXPECT_NEAR(nt.mean(), 4401.0, 450.0);
}

TEST(NtHistogramTest, QueryHistogramMeanMatchesTwentyQueriesAt86KiB) {
  // 20 queries ≈ 86 KiB ⇒ mean ≈ 4.3 KiB.
  const auto& q = nt_query_histogram();
  EXPECT_NEAR(q.mean(), 4400.0, 900.0);
}

TEST(NtHistogramTest, SamplingIsDeterministic) {
  Xoshiro256 a(9), b(9);
  const auto& nt = nt_database_histogram();
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(nt.sample(a), nt.sample(b));
}

/// BoxHistogram::sample spelled as an upper_bound over the cumulative
/// weights, drawing from the generator exactly as sample does.
std::uint64_t upper_bound_sample(const BoxHistogram& hist,
                                 const std::vector<double>& cumulative,
                                 Xoshiro256& rng) {
  const double draw = rng.uniform() * cumulative.back();
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), draw);
  const auto idx = std::min(static_cast<std::size_t>(it - cumulative.begin()),
                            cumulative.size() - 1);
  return rng.uniform_u64(hist.bins()[idx].lo, hist.bins()[idx].hi);
}

TEST(BoxHistogramTest, SampleMatchesUpperBoundBinPick) {
  const std::vector<std::pair<std::string, BoxHistogram>> cases = {
      {"nt database", nt_database_histogram()},
      {"nt query", nt_query_histogram()},
      {"single bin", BoxHistogram{{HistogramBin{7, 9'000, 2.5}}}},
      {"zero-weight bins", BoxHistogram{{HistogramBin{0, 9, 0.0},
                                         HistogramBin{10, 19, 1.0},
                                         HistogramBin{20, 29, 0.0},
                                         HistogramBin{30, 39, 0.0},
                                         HistogramBin{40, 49, 3.0},
                                         HistogramBin{50, 59, 0.0}}}},
  };
  for (const auto& [name, hist] : cases) {
    std::vector<double> cumulative;
    double total = 0.0;
    for (const auto& bin : hist.bins())
      cumulative.push_back(total += bin.weight);
    Xoshiro256 rng(17), replica(17);
    for (int i = 0; i < 100'000; ++i) {
      const std::uint64_t value = hist.sample(rng);
      const std::uint64_t expected =
          upper_bound_sample(hist, cumulative, replica);
      Xoshiro256 next = rng, replica_next = replica;
      if (value != expected || next() != replica_next()) {
        ADD_FAILURE() << name << ": draw " << i << " gave " << value
                      << ", upper_bound gives " << expected;
        break;
      }
    }
  }
}

TEST(BuildHistogramTest, RoundTripsRangeAndMass) {
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 10; v <= 1000; v += 7) values.push_back(v);
  const auto hist = build_histogram(values, 8);
  EXPECT_EQ(hist.min_value(), 10u);
  EXPECT_EQ(hist.max_value(), 997u);
  double total = 0.0;
  for (const auto& bin : hist.bins()) total += bin.weight;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(values.size()));
}

TEST(BuildHistogramTest, SingleValue) {
  const std::vector<std::uint64_t> values{42, 42, 42};
  const auto hist = build_histogram(values, 4);
  EXPECT_EQ(hist.min_value(), 42u);
  EXPECT_EQ(hist.max_value(), 42u);
  Xoshiro256 rng(1);
  EXPECT_EQ(hist.sample(rng), 42u);
}

TEST(BuildHistogramTest, RejectsEmptyInput) {
  EXPECT_THROW((void)build_histogram({}, 4), std::invalid_argument);
}

TEST(BuildHistogramTest, ApproximatesSourceMean) {
  std::vector<std::uint64_t> values;
  Xoshiro256 rng(55);
  double true_sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_u64(100, 10'000);
    values.push_back(v);
    true_sum += static_cast<double>(v);
  }
  const auto hist = build_histogram(values, 24);
  const double true_mean = true_sum / static_cast<double>(values.size());
  EXPECT_NEAR(hist.mean(), true_mean, true_mean * 0.10);
}

}  // namespace
