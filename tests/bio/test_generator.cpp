#include "bio/generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace {

using namespace s3asim::bio;
using s3asim::util::BoxHistogram;
using s3asim::util::HistogramBin;

GeneratorConfig small_config(std::uint64_t seed = 1) {
  GeneratorConfig config;
  config.seed = seed;
  config.length_histogram = BoxHistogram{{HistogramBin{50, 200, 1.0}}};
  return config;
}

TEST(GeneratorTest, ProducesRequestedCount) {
  const auto sequences = generate_sequences(small_config(), 25);
  EXPECT_EQ(sequences.size(), 25u);
}

TEST(GeneratorTest, LengthsWithinHistogramRange) {
  const auto sequences = generate_sequences(small_config(), 100);
  for (const auto& sequence : sequences) {
    EXPECT_GE(sequence.length(), 50u);
    EXPECT_LE(sequence.length(), 200u);
  }
}

TEST(GeneratorTest, OnlyAcgtCharacters) {
  const auto sequences = generate_sequences(small_config(), 10);
  for (const auto& sequence : sequences)
    for (const char c : sequence.data)
      EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  const auto a = generate_sequences(small_config(9), 5);
  const auto b = generate_sequences(small_config(9), 5);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].data, b[i].data);
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const auto a = generate_sequences(small_config(1), 5);
  const auto b = generate_sequences(small_config(2), 5);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].data != b[i].data) any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(GeneratorTest, GcContentRespected) {
  auto config = small_config();
  config.gc_content = 0.8;
  config.length_histogram = BoxHistogram{{HistogramBin{5000, 5000, 1.0}}};
  const auto sequences = generate_sequences(config, 4);
  std::uint64_t gc = 0, total = 0;
  for (const auto& sequence : sequences)
    for (const char c : sequence.data) {
      if (c == 'G' || c == 'C') ++gc;
      ++total;
    }
  EXPECT_NEAR(static_cast<double>(gc) / static_cast<double>(total), 0.8, 0.03);
}

TEST(GeneratorTest, UniqueIds) {
  const auto sequences = generate_sequences(small_config(), 50);
  std::set<std::string> ids;
  for (const auto& sequence : sequences) ids.insert(sequence.id);
  EXPECT_EQ(ids.size(), 50u);
}

TEST(GeneratorTest, RejectsBadGcContent) {
  auto config = small_config();
  config.gc_content = 1.5;
  EXPECT_THROW((void)generate_sequences(config, 1), std::invalid_argument);
}

TEST(GenerateQueriesTest, PaperQuerySetSizeIsAbout86KiB) {
  // 20 queries from the paper's histogram: expect roughly 86 KB total.
  const auto queries = generate_queries(/*seed=*/20060627, 20);
  EXPECT_EQ(queries.size(), 20u);
  const auto total = total_residues(queries);
  EXPECT_GT(total, 86'000u / 3);
  EXPECT_LT(total, 86'000u * 3);
}

TEST(TotalResiduesTest, SumsLengths) {
  std::vector<Sequence> sequences{{"a", "", "ACGT"}, {"b", "", "AC"}};
  EXPECT_EQ(total_residues(sequences), 6u);
}

}  // namespace
