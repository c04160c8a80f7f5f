#include "core/strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>

#include "core/config.hpp"
#include "core/strategies/registry.hpp"

namespace {

using namespace s3asim::core;

TEST(StrategyTest, Names) {
  EXPECT_STREQ(strategy_name(Strategy::MW), "MW");
  EXPECT_STREQ(strategy_name(Strategy::WWPosix), "WW-POSIX");
  EXPECT_STREQ(strategy_name(Strategy::WWList), "WW-List");
  EXPECT_STREQ(strategy_name(Strategy::WWColl), "WW-Coll");
  EXPECT_STREQ(strategy_name(Strategy::WWCollList), "WW-CollList");
  EXPECT_STREQ(strategy_name(Strategy::WWFilePerProcess), "WW-FilePerProc");
  EXPECT_STREQ(strategy_name(Strategy::WWAggr), "WW-Aggr");
  EXPECT_STREQ(strategy_name(Strategy::WWSieve), "WW-Sieve");
}

TEST(StrategyTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const Strategy strategy : kAllStrategies) {
    const std::string name = strategy_name(strategy);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(StrategyTest, WorkerWritesClassification) {
  for (const Strategy strategy : kAllStrategies)
    EXPECT_EQ(worker_writes(strategy), strategy != Strategy::MW)
        << strategy_name(strategy);
}

TEST(StrategyTest, CollectiveClassification) {
  for (const Strategy strategy : kAllStrategies)
    EXPECT_EQ(is_collective(strategy), strategy == Strategy::WWColl ||
                                           strategy == Strategy::WWCollList)
        << strategy_name(strategy);
}

TEST(StrategyTest, LockstepFlushClassification) {
  for (const Strategy strategy : kAllStrategies)
    EXPECT_EQ(lockstep_flush(strategy),
              is_collective(strategy) || strategy == Strategy::WWAggr)
        << strategy_name(strategy);
}

TEST(StrategyTest, NotificationClassification) {
  for (const Strategy strategy : kAllStrategies) {
    EXPECT_EQ(offsets_are_notifications(strategy),
              strategy == Strategy::MW ||
                  strategy == Strategy::WWFilePerProcess)
        << strategy_name(strategy);
    // A notification-only strategy never flushes, so it has no flush to
    // run in lockstep.
    if (offsets_are_notifications(strategy)) {
      EXPECT_FALSE(lockstep_flush(strategy)) << strategy_name(strategy);
    }
  }
}

// The property the CLI/config loader depend on: the canonical name of
// every enumerator parses back to that enumerator, in any case.
TEST(StrategyTest, ParseRoundTripEveryEnumerator) {
  for (const Strategy strategy : kAllStrategies) {
    const std::string name = strategy_name(strategy);
    EXPECT_EQ(parse_strategy(name), strategy) << name;

    std::string upper = name;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) {
                     return static_cast<char>(std::toupper(c));
                   });
    EXPECT_EQ(parse_strategy(upper), strategy) << upper;

    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) {
                     return static_cast<char>(std::tolower(c));
                   });
    EXPECT_EQ(parse_strategy(lower), strategy) << lower;
  }
}

TEST(StrategyTest, ParseAliases) {
  EXPECT_EQ(parse_strategy("mw"), Strategy::MW);
  EXPECT_EQ(parse_strategy("list"), Strategy::WWList);
  EXPECT_EQ(parse_strategy("posix"), Strategy::WWPosix);
  EXPECT_EQ(parse_strategy("coll"), Strategy::WWColl);
  EXPECT_EQ(parse_strategy("colllist"), Strategy::WWCollList);
  EXPECT_EQ(parse_strategy("nn"), Strategy::WWFilePerProcess);
  EXPECT_EQ(parse_strategy("file-per-process"), Strategy::WWFilePerProcess);
  EXPECT_EQ(parse_strategy("aggr"), Strategy::WWAggr);
  EXPECT_EQ(parse_strategy("aggregate"), Strategy::WWAggr);
  EXPECT_EQ(parse_strategy("AGGR"), Strategy::WWAggr);
  EXPECT_EQ(parse_strategy("sieve"), Strategy::WWSieve);
  EXPECT_EQ(parse_strategy("SIEVE"), Strategy::WWSieve);
}

TEST(StrategyTest, ParseRejectsUnknownWithCanonicalSpellings) {
  EXPECT_THROW((void)parse_strategy("magic"), std::invalid_argument);
  try {
    (void)parse_strategy("magic");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("magic"), std::string::npos);
    for (const Strategy strategy : kAllStrategies)
      EXPECT_NE(message.find(strategy_name(strategy)), std::string::npos)
          << "error message should list " << strategy_name(strategy);
  }
}

// make_strategy is the pluggability seam: every enumerator must resolve to
// an IoStrategy, and the collective writers must carry their algorithm in
// the group file's hints (the only place WW-Coll and WW-CollList differ).
TEST(StrategyRegistryTest, EveryEnumeratorResolvesConsistently) {
  const SimConfig config = test_config();
  for (const Strategy strategy : kAllStrategies) {
    const auto made = make_strategy(strategy);
    ASSERT_NE(made, nullptr) << strategy_name(strategy);
    const auto expected = strategy == Strategy::WWCollList
                              ? s3asim::mpiio::CollectiveAlgorithm::ListWithSync
                              : s3asim::mpiio::CollectiveAlgorithm::TwoPhase;
    EXPECT_EQ(made->file_hints(config).collective_algorithm, expected)
        << strategy_name(strategy);
  }
}

TEST(ConfigTest, PaperConfigMatchesSection33) {
  const auto config = paper_config();
  EXPECT_EQ(config.workload.query_count, 20u);
  EXPECT_EQ(config.workload.fragment_count, 128u);
  EXPECT_EQ(config.workload.result_count_min, 1000u);
  EXPECT_EQ(config.workload.result_count_max, 2000u);
  EXPECT_EQ(config.queries_per_flush, 1u);     // "written ... after each query"
  EXPECT_TRUE(config.sync_after_write);        // "MPI_File_sync always called"
  EXPECT_EQ(config.model.pfs.layout.server_count(), 16u);
  EXPECT_EQ(config.model.pfs.layout.strip_size(), 65536u);
}

TEST(ConfigTest, TestConfigIsSmall) {
  const auto config = test_config();
  EXPECT_LE(config.workload.query_count, 8u);
  EXPECT_LE(config.workload.fragment_count, 16u);
  EXPECT_GE(config.nprocs, 2u);
}

}  // namespace
