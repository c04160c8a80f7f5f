/// Cache-enabled byte-identity suite: with the client-side write-back
/// cache on (DESIGN.md §10), the simulated results must stay bit-identical
/// across threads — a run repeated on a new thread, concurrent runs, and
/// `--jobs N` sweep parallelism.  Lease grants, revocation round trips,
/// and flush-behind evictions all ride the simulated clock, so no host
/// interleaving may leak through.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "util/units.hpp"

namespace {

using namespace s3asim;
using core::SimConfig;
using core::Strategy;

/// The strategies the cache affects most directly: batched master writes,
/// per-call POSIX writes (token-contention worst case), and aggregation.
const Strategy kCacheStrategies[] = {Strategy::MW, Strategy::WWPosix,
                                     Strategy::WWAggr};

SimConfig cached_config(Strategy strategy,
                        std::uint64_t capacity = util::MiB) {
  SimConfig config = core::test_config();
  config.nprocs = 8;
  config.strategy = strategy;
  config.sync_after_write = false;  // let the cache absorb writes
  config.model.pfs.cache.capacity_bytes = capacity;
  config.model.pfs.cache.block_bytes = 4 * util::KiB;
  config.model.pfs.cache.token_bytes = 16 * util::KiB;
  return config;
}

std::string stats_json(const SimConfig& config) {
  return core::run_simulation(config).to_json();
}

/// The run's stats rendered on a new thread: a fresh thread-local frame
/// pool and no host state shared with the calling thread.
std::string json_on_thread(const SimConfig& config) {
  return std::async(std::launch::async,
                    [&config] { return stats_json(config); })
      .get();
}

TEST(CacheIdentityTest, NewThreadMatchesAcrossStrategies) {
  for (const Strategy strategy : kCacheStrategies) {
    const SimConfig config = cached_config(strategy);
    EXPECT_EQ(json_on_thread(config), stats_json(config))
        << core::strategy_name(strategy);
  }
}

TEST(CacheIdentityTest, TinyCapacityEvictionPressureMatches) {
  // A cache small enough to force flush-behind evictions mid-run is the
  // hardest case: eviction order depends on LRU state that must evolve
  // identically on any thread.
  for (const Strategy strategy : kCacheStrategies) {
    const SimConfig config =
        cached_config(strategy, /*capacity=*/32 * util::KiB);
    EXPECT_EQ(json_on_thread(config), stats_json(config))
        << core::strategy_name(strategy);
  }
}

TEST(CacheIdentityTest, SyncAfterWriteMatches) {
  // sync_after_write flushes the cache after every write burst; the
  // flush/lease interleaving must still be thread-invariant.
  for (const Strategy strategy : kCacheStrategies) {
    SimConfig config = cached_config(strategy);
    config.sync_after_write = true;
    EXPECT_EQ(json_on_thread(config), stats_json(config))
        << core::strategy_name(strategy);
  }
}

TEST(CacheIdentityTest, JobsSweepMatchesSerialSweep) {
  // `--jobs 4` runs cache-enabled points on a thread pool; grid-order
  // results must be byte-identical to the serial sweep.
  std::vector<bench::Point> grid;
  for (const Strategy strategy : kCacheStrategies)
    grid.push_back({core::strategy_name(strategy), cached_config(strategy)});
  const auto serial = bench::run_sweep(grid, 1);
  const auto parallel = bench::run_sweep(grid, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(parallel[i].stats.to_json(), serial[i].stats.to_json())
        << serial[i].label;
}

TEST(CacheIdentityTest, RepeatedParallelRunsAgree) {
  // Two runs executing at the same time, each on its own thread, agree.
  const SimConfig config = cached_config(Strategy::WWAggr);
  const auto run = [&config] { return stats_json(config); };
  auto first = std::async(std::launch::async, run);
  auto second = std::async(std::launch::async, run);
  EXPECT_EQ(first.get(), second.get());
}

TEST(CacheIdentityTest, CacheStatsSurfaceInRunStats) {
  const SimConfig config = cached_config(Strategy::MW);
  const core::RunStats stats = core::run_simulation(config);
  EXPECT_TRUE(stats.cache.enabled);
  EXPECT_GT(stats.cache.token_grants, 0u);
  EXPECT_GT(stats.cache.write_misses, 0u);
  EXPECT_NE(stats.to_json().find("\"cache\""), std::string::npos);
}

TEST(CacheIdentityTest, CacheOffOmitsCacheSection) {
  SimConfig config = core::test_config();
  config.nprocs = 8;
  const core::RunStats stats = core::run_simulation(config);
  EXPECT_FALSE(stats.cache.enabled);
  EXPECT_EQ(stats.to_json().find("\"cache\""), std::string::npos);
}

}  // namespace
