#include <gtest/gtest.h>

#include <stdexcept>

#include "core/simulation.hpp"
#include "util/units.hpp"

/// Tests for hybrid query/database segmentation (§5 future work): multiple
/// master/worker groups sharing the cluster and file system, each owning a
/// round-robin slice of the queries and its own output file.

namespace {

using namespace s3asim::core;
using s3asim::util::MiB;

SimConfig hybrid_config() {
  auto config = test_config();      // 4 queries, 8 fragments
  config.nprocs = 8;                // divisible by 1, 2, 4
  config.strategy = Strategy::WWList;
  return config;
}

RunStats run_groups(SimConfig config, std::uint32_t groups) {
  config.groups = groups;
  return run_simulation(config);
}

class HybridGroupTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HybridGroupTest, AllGroupsVerifyExactly) {
  const auto stats = run_groups(hybrid_config(), GetParam());
  EXPECT_TRUE(stats.file_exact);
  EXPECT_EQ(stats.overlap_count, 0u);
  EXPECT_EQ(stats.bytes_covered, stats.output_bytes);
  EXPECT_EQ(stats.groups, GetParam());
}

TEST_P(HybridGroupTest, AllTasksProcessedOnce) {
  const auto config = hybrid_config();
  const auto stats = run_groups(config, GetParam());
  std::uint64_t tasks = 0;
  for (const auto& rank : stats.ranks) tasks += rank.tasks_processed;
  EXPECT_EQ(tasks, static_cast<std::uint64_t>(config.workload.query_count) *
                       config.workload.fragment_count);
}

TEST_P(HybridGroupTest, MastersNeverCompute) {
  const auto config = hybrid_config();
  const auto stats = run_groups(config, GetParam());
  const std::uint32_t per_group = config.nprocs / GetParam();
  for (std::uint32_t g = 0; g < GetParam(); ++g)
    EXPECT_EQ(stats.ranks[g * per_group].tasks_processed, 0u);
}

TEST_P(HybridGroupTest, PhaseSumsHold) {
  const auto stats = run_groups(hybrid_config(), GetParam());
  for (const auto& rank : stats.ranks)
    EXPECT_EQ(rank.phases.total(), rank.wall);
}

INSTANTIATE_TEST_SUITE_P(Groups, HybridGroupTest, ::testing::Values(1u, 2u, 4u));

TEST(HybridTest, WorksForEveryStrategy) {
  for (const Strategy strategy :
       {Strategy::MW, Strategy::WWPosix, Strategy::WWList, Strategy::WWColl,
        Strategy::WWCollList}) {
    auto config = hybrid_config();
    config.strategy = strategy;
    const auto stats = run_groups(config, 2);
    EXPECT_TRUE(stats.file_exact) << strategy_name(strategy);
  }
}

TEST(HybridTest, QuerySyncMode) {
  auto config = hybrid_config();
  config.query_sync = true;
  const auto stats = run_groups(config, 2);
  EXPECT_TRUE(stats.file_exact);
}

TEST(HybridTest, RejectsBadGroupCounts) {
  const auto config = hybrid_config();  // nprocs = 8
  EXPECT_THROW((void)run_groups(config, 0), std::invalid_argument);
  EXPECT_THROW((void)run_groups(config, 3), std::invalid_argument);
  EXPECT_THROW((void)run_groups(config, 8), std::invalid_argument);
  auto few_queries = config;
  few_queries.workload.query_count = 1;
  EXPECT_THROW((void)run_groups(few_queries, 2), std::invalid_argument);
}

TEST(HybridTest, DeterministicAcrossRuns) {
  const auto a = run_groups(hybrid_config(), 2);
  const auto b = run_groups(hybrid_config(), 2);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
}

TEST(HybridTest, MemoryPressureFavorsFewGroups) {
  // Hybrid trade-off: with G groups each worker must cover F·G/(nprocs-G)
  // fragments per query, so more groups raise per-worker memory pressure.
  auto config = hybrid_config();
  config.nprocs = 8;
  config.workload.database_bytes = 64 * MiB;
  config.worker_memory_bytes = 16 * MiB;
  const auto one = run_groups(config, 1);
  const auto four = run_groups(config, 4);
  std::uint64_t loads_one = 0, loads_four = 0;
  for (const auto& rank : one.ranks) loads_one += rank.fragment_loads;
  for (const auto& rank : four.ranks) loads_four += rank.fragment_loads;
  EXPECT_LE(loads_one, loads_four);
}

TEST(HybridTest, GroupsRelieveMasterBottleneckForMw) {
  // The MW master is the serial bottleneck; hybrid segmentation divides the
  // gathering/writing across G masters.
  auto config = hybrid_config();
  config.nprocs = 8;
  config.strategy = Strategy::MW;
  config.workload.query_count = 8;  // divisible work per group
  const auto one = run_groups(config, 1);
  const auto two = run_groups(config, 2);
  EXPECT_LT(two.wall_seconds, one.wall_seconds * 1.05);
}

}  // namespace
