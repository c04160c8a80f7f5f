#include "core/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "util/rng.hpp"

namespace {

using namespace s3asim::core;
using s3asim::util::BoxHistogram;

WorkloadConfig small_workload() {
  WorkloadConfig config;
  config.seed = 99;
  config.query_count = 6;
  config.fragment_count = 16;
  config.result_count_min = 50;
  config.result_count_max = 100;
  config.min_result_bytes = 128;
  return config;
}

TEST(WorkloadTest, ResultCountWithinConfiguredRange) {
  WorkloadModel model(small_workload());
  for (std::uint32_t q = 0; q < 6; ++q) {
    const auto& workload = model.query(q);
    EXPECT_GE(workload.results.size(), 50u);
    EXPECT_LE(workload.results.size(), 100u);
  }
}

TEST(WorkloadTest, ResultsSortedByDescendingScore) {
  WorkloadModel model(small_workload());
  for (std::uint32_t q = 0; q < 6; ++q) {
    const auto& results = model.query(q).results;
    for (std::size_t i = 1; i < results.size(); ++i)
      EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST(WorkloadTest, OffsetsArePrefixSums) {
  WorkloadModel model(small_workload());
  const auto& workload = model.query(0);
  std::uint64_t cursor = 0;
  for (std::size_t i = 0; i < workload.results.size(); ++i) {
    EXPECT_EQ(workload.offsets[i], cursor);
    cursor += workload.results[i].bytes;
  }
  EXPECT_EQ(workload.total_bytes, cursor);
}

TEST(WorkloadTest, ByFragmentPartitionsAllResults) {
  WorkloadModel model(small_workload());
  const auto& workload = model.query(2);
  std::set<std::uint32_t> seen;
  for (std::uint32_t f = 0; f < 16; ++f) {
    for (const std::uint32_t index : workload.by_fragment(f)) {
      EXPECT_TRUE(seen.insert(index).second);
      EXPECT_LT(index, workload.results.size());
    }
  }
  EXPECT_EQ(seen.size(), workload.results.size());
}

TEST(WorkloadTest, FragmentResultBytesSumToRegion) {
  WorkloadModel model(small_workload());
  for (std::uint32_t q = 0; q < 6; ++q) {
    std::uint64_t total = 0;
    for (std::uint32_t f = 0; f < 16; ++f)
      total += model.fragment_result_bytes(q, f);
    EXPECT_EQ(total, model.query(q).total_bytes);
  }
}

TEST(WorkloadTest, RegionBasesAreConsistent) {
  WorkloadModel model(small_workload());
  EXPECT_EQ(model.region_base(0), 0u);
  for (std::uint32_t q = 1; q < 6; ++q) {
    EXPECT_EQ(model.region_base(q),
              model.region_base(q - 1) + model.query(q - 1).total_bytes);
  }
  EXPECT_EQ(model.total_output_bytes(),
            model.region_base(5) + model.query(5).total_bytes);
}

TEST(WorkloadTest, MinResultBytesRespected) {
  WorkloadModel model(small_workload());
  for (std::uint32_t q = 0; q < 6; ++q)
    for (const auto& result : model.query(q).results)
      EXPECT_GE(result.bytes, 128u);
}

TEST(WorkloadTest, GenerationOrderIndependent) {
  // Accessing query 5 before query 0 must not change either.
  WorkloadModel forward(small_workload());
  WorkloadModel backward(small_workload());
  const auto& f0 = forward.query(0);
  const auto& f5 = forward.query(5);
  const auto& b5 = backward.query(5);
  const auto& b0 = backward.query(0);
  ASSERT_EQ(f0.results.size(), b0.results.size());
  ASSERT_EQ(f5.results.size(), b5.results.size());
  for (std::size_t i = 0; i < f0.results.size(); ++i) {
    EXPECT_EQ(f0.results[i].score, b0.results[i].score);
    EXPECT_EQ(f0.results[i].bytes, b0.results[i].bytes);
    EXPECT_EQ(f0.results[i].fragment, b0.results[i].fragment);
  }
}

TEST(WorkloadTest, SeedChangesWorkload) {
  auto config_a = small_workload();
  auto config_b = small_workload();
  config_b.seed = 100;
  WorkloadModel a(config_a), b(config_b);
  EXPECT_NE(a.total_output_bytes(), b.total_output_bytes());
}

TEST(WorkloadTest, PaperWorkloadVolumeApproximates208MB) {
  WorkloadConfig config;  // paper defaults
  WorkloadModel model(config);
  const double mb = static_cast<double>(model.total_output_bytes()) / 1e6;
  // §3.3: "Each data point we present generated roughly 208 MBytes".
  EXPECT_GT(mb, 160.0);
  EXPECT_LT(mb, 260.0);
  // 20 queries × [1000, 2000] results.
  EXPECT_GE(model.total_result_count(), 20'000u);
  EXPECT_LE(model.total_result_count(), 40'000u);
}

TEST(WorkloadTest, RejectsBadConfig) {
  auto config = small_workload();
  config.result_count_min = 0;
  EXPECT_THROW(WorkloadModel{config}, std::invalid_argument);
  config = small_workload();
  config.result_count_min = 200;  // > max
  EXPECT_THROW(WorkloadModel{config}, std::invalid_argument);
  config = small_workload();
  config.query_count = 0;
  EXPECT_THROW(WorkloadModel{config}, std::invalid_argument);
  config = small_workload();
  config.size_scale = 0.0;
  EXPECT_THROW(WorkloadModel{config}, std::invalid_argument);
}

TEST(WorkloadTest, FragmentOutOfRangeRejected) {
  WorkloadModel model(small_workload());
  EXPECT_THROW((void)model.fragment_result_bytes(0, 16), std::invalid_argument);
}

/// One digest of everything the model generates for every query of a
/// config: query length, results in file order, offsets, each fragment's
/// result indices and bytes, and the region size.
std::uint64_t workload_digest(const WorkloadConfig& config) {
  const WorkloadModel model(config);
  std::uint64_t digest = 0;
  const auto mix = [&digest](std::uint64_t value) {
    digest = s3asim::util::hash_combine(digest, value);
  };
  for (std::uint32_t q = 0; q < config.query_count; ++q) {
    const QueryWorkload& workload = model.query(q);
    mix(workload.query_length);
    mix(workload.results.size());
    for (const ResultInfo& result : workload.results) {
      mix(result.score);
      mix(result.bytes);
      mix(result.fragment);
    }
    for (const std::uint64_t offset : workload.offsets) mix(offset);
    for (std::uint32_t f = 0; f < config.fragment_count; ++f) {
      const auto row = workload.by_fragment(f);
      mix(row.size());
      for (const std::uint32_t index : row) mix(index);
      mix(model.fragment_result_bytes(q, f));
    }
    mix(workload.total_bytes);
  }
  return digest;
}

TEST(WorkloadTest, GeneratedWorkloadsMatchPinnedDigests) {
  // Pinned from the generator as the paper reproduction first shipped it:
  // any change to the results, their order or the fragment rows of any of
  // these shapes changes every figure, so it must be deliberate.
  struct Pinned {
    std::string name;
    WorkloadConfig config;
    std::uint64_t digest;
  };
  std::vector<Pinned> pinned;
  pinned.push_back({"paper defaults", WorkloadConfig{}, 0xc699fb134c74b5edULL});
  WorkloadConfig config;
  config.query_count = 100;  // the mw-contig benchmark shape
  pinned.push_back({"100 queries", config, 0xfb4717f143a302c6ULL});
  pinned.push_back({"small", small_workload(), 0x808b7b7b8a3aa6d0ULL});
  config = small_workload();
  config.fragment_count = 1;
  pinned.push_back({"one fragment", config, 0xedc1a4be0462923dULL});
  config = small_workload();
  config.result_count_min = config.result_count_max = 77;
  pinned.push_back({"fixed result count", config, 0xb2316afe4447154cULL});
  config = small_workload();
  config.query_lengths = {100, 5'000, 64, 1'000'000, 7, 4'096};
  pinned.push_back({"query_lengths override", config, 0x9b4049b6e1d655e8ULL});
  config = small_workload();
  config.query_histogram =
      BoxHistogram{{{64, 255, 0.0}, {256, 1'024, 3.0}, {1'025, 8'192, 1.0}}};
  config.database_histogram = BoxHistogram{{{6, 63, 0.0},
                                            {64, 4'096, 5.0},
                                            {4'097, 65'536, 0.0},
                                            {65'537, 1'000'000, 0.5},
                                            {1'000'001, 43'000'000, 0.0}}};
  pinned.push_back({"zero-weight bins", config, 0x50ba13d4374c19d8ULL});
  config = small_workload();
  config.size_scale = 0.25;
  pinned.push_back({"size_scale 0.25", config, 0x5c3f13d4cb6cff37ULL});
  config = small_workload();
  config.result_count_min = 1;
  config.result_count_max = 5'000;
  config.fragment_count = 7;
  pinned.push_back({"1 to 5000 results", config, 0xf13ecadcd180c905ULL});

  for (const Pinned& entry : pinned)
    EXPECT_EQ(workload_digest(entry.config), entry.digest) << entry.name;
}

/// The nine shapes of `GeneratedWorkloadsMatchPinnedDigests`, by name.
std::vector<std::pair<std::string, WorkloadConfig>> digest_shapes() {
  std::vector<std::pair<std::string, WorkloadConfig>> shapes;
  shapes.emplace_back("paper defaults", WorkloadConfig{});
  WorkloadConfig config;
  config.query_count = 100;
  shapes.emplace_back("100 queries", config);
  shapes.emplace_back("small", small_workload());
  config = small_workload();
  config.fragment_count = 1;
  shapes.emplace_back("one fragment", config);
  config = small_workload();
  config.result_count_min = config.result_count_max = 77;
  shapes.emplace_back("fixed result count", config);
  config = small_workload();
  config.query_lengths = {100, 5'000, 64, 1'000'000, 7, 4'096};
  shapes.emplace_back("query_lengths override", config);
  config = small_workload();
  config.query_histogram =
      BoxHistogram{{{64, 255, 0.0}, {256, 1'024, 3.0}, {1'025, 8'192, 1.0}}};
  config.database_histogram = BoxHistogram{{{6, 63, 0.0},
                                            {64, 4'096, 5.0},
                                            {4'097, 65'536, 0.0},
                                            {65'537, 1'000'000, 0.5},
                                            {1'000'001, 43'000'000, 0.0}}};
  shapes.emplace_back("zero-weight bins", config);
  config = small_workload();
  config.size_scale = 0.25;
  shapes.emplace_back("size_scale 0.25", config);
  config = small_workload();
  config.result_count_min = 1;
  config.result_count_max = 5'000;
  config.fragment_count = 7;
  shapes.emplace_back("1 to 5000 results", config);
  return shapes;
}

TEST(WorkloadTest, SummaryMatchesLayout) {
  // A summary-only model's sizes equal the ones a layout-building model's
  // results add up to, query by query and fragment by fragment.
  for (const auto& [name, config] : digest_shapes()) {
    SCOPED_TRACE(name);
    const WorkloadModel summaries(config, /*build_layouts=*/false);
    const WorkloadModel layouts(config);
    for (std::uint32_t q = 0; q < config.query_count; ++q) {
      const QuerySummary& summary = summaries.summary(q);
      const QueryWorkload& layout = layouts.query(q);
      EXPECT_EQ(summary.query_length, layout.query_length);
      EXPECT_EQ(summary.result_count, layout.results.size());
      std::uint64_t region = 0;
      for (const ResultInfo& result : layout.results) region += result.bytes;
      EXPECT_EQ(summary.total_bytes, region);
      ASSERT_EQ(summary.fragment_results.size(), config.fragment_count);
      ASSERT_EQ(summary.fragment_bytes.size(), config.fragment_count);
      for (std::uint32_t f = 0; f < config.fragment_count; ++f) {
        std::uint64_t bytes = 0;
        for (const std::uint32_t index : layout.by_fragment(f))
          bytes += layout.results[index].bytes;
        EXPECT_EQ(summary.fragment_results[f], layout.by_fragment(f).size());
        EXPECT_EQ(summary.fragment_bytes[f], bytes);
        EXPECT_EQ(summaries.fragment_result_bytes(q, f), bytes);
      }
      EXPECT_EQ(summaries.region_base(q), layouts.region_base(q));
    }
    EXPECT_EQ(summaries.total_output_bytes(), layouts.total_output_bytes());
    EXPECT_EQ(summaries.total_result_count(), layouts.total_result_count());
  }
}

TEST(WorkloadTest, SummaryOnlyModelBuildsNoLayout) {
  // Every size reader works on a summary-only model; a layout it refuses
  // rather than drawing the query again.
  const WorkloadModel model(small_workload(), /*build_layouts=*/false);
  EXPECT_GT(model.total_output_bytes(), 0u);
  EXPECT_GT(model.total_result_count(), 0u);
  for (std::uint32_t q = 0; q < 6; ++q) {
    EXPECT_GT(model.summary(q).total_bytes, 0u);
    EXPECT_THROW((void)model.query(q), std::invalid_argument);
  }
}

TEST(WorkloadTest, OnlyOffsetListStrategiesBuildLayouts) {
  // A run's model builds layouts iff workers write, i.e. iff the strategy
  // ships offset lists: an MW run has summaries only.
  for (const Strategy strategy : kAllStrategies) {
    SCOPED_TRACE(strategy_name(strategy));
    SimConfig config = test_config();
    config.strategy = strategy;
    const World world(config);
    if (strategy == Strategy::MW)
      EXPECT_THROW((void)world.workload.query(0), std::invalid_argument);
    else
      EXPECT_EQ(world.workload.query(0).results.size(),
                world.workload.summary(0).result_count);
  }
}

/// The file order of the old generator: a stable sort of the draw indices
/// by descending score.
std::vector<std::uint32_t> stable_score_order(
    const std::vector<std::uint64_t>& scores) {
  std::vector<std::uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&scores](std::uint32_t a, std::uint32_t b) {
                     return scores[a] > scores[b];
                   });
  return order;
}

TEST(ScoreOrderTest, MatchesStableSortOnTiesAndRuns) {
  // Score sets the generator's uniform 64-bit draws practically never
  // produce: ties everywhere, one crowded bucket, presorted runs.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint32_t n : {1u, 2u, 3u, 1023u, 1024u, 1025u, 5000u}) {
    s3asim::util::Xoshiro256 rng(n);
    std::vector<std::pair<std::string, std::vector<std::uint64_t>>> inputs;
    const auto add = [&](std::string name, auto score_of) {
      std::vector<std::uint64_t> scores(n);
      for (std::uint32_t i = 0; i < n; ++i) scores[i] = score_of(i);
      inputs.emplace_back(std::move(name), std::move(scores));
    };
    add("all equal", [](std::uint32_t) { return 0x5eedULL << 40; });
    add("two distinct",
        [&rng](std::uint32_t) { return rng() % 2 == 0 ? 0 : kMax; });
    add("two distinct in one bucket",
        [&rng](std::uint32_t) { return (1ULL << 63) + rng() % 2; });
    add("shared top 32 bits", [&rng](std::uint32_t) {
      return 0xdeadbeef00000000ULL | (rng() >> 32);
    });
    add("shared top 32 bits, few low values", [&rng](std::uint32_t) {
      return 0xdeadbeef00000000ULL | (rng() % 7);
    });
    add("ascending", [](std::uint32_t i) { return std::uint64_t{i} << 50; });
    add("descending",
        [n](std::uint32_t i) { return std::uint64_t{n - i} << 50; });
    add("ascending pairs",
        [](std::uint32_t i) { return std::uint64_t{i / 2}; });
    add("uniform", [&rng](std::uint32_t) { return rng(); });
    for (const auto& [name, scores] : inputs)
      EXPECT_EQ(score_order(scores), stable_score_order(scores))
          << name << ", n = " << n;
  }
}

TEST(ScoreOrderTest, EmptyInputGivesEmptyOrder) {
  EXPECT_TRUE(score_order({}).empty());
}

class WorkloadSizeScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(WorkloadSizeScaleTest, OutputScalesRoughlyLinearly) {
  auto config = small_workload();
  config.size_scale = 1.0;
  WorkloadModel base(config);
  config.size_scale = GetParam();
  WorkloadModel scaled(config);
  const double ratio = static_cast<double>(scaled.total_output_bytes()) /
                       static_cast<double>(base.total_output_bytes());
  // The min_result_bytes floor keeps this from being perfectly linear.
  EXPECT_GT(ratio, GetParam() * 0.5);
  EXPECT_LT(ratio, GetParam() * 1.6 + 0.3);
}

INSTANTIATE_TEST_SUITE_P(Scales, WorkloadSizeScaleTest,
                         ::testing::Values(0.5, 2.0, 4.0));

}  // namespace
