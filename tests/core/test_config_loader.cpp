#include "core/config_loader.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/serving.hpp"
#include "core/simulation.hpp"

namespace {

using namespace s3asim::core;
namespace sim = s3asim::sim;

/// Writes `text` to a fresh file under the test temp dir and returns its path.
std::string write_temp_trace(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(ConfigLoaderTest, EmptyTextYieldsPaperConfig) {
  const auto loaded = load_config("");
  const auto paper = paper_config();
  EXPECT_EQ(loaded.nprocs, paper.nprocs);
  EXPECT_EQ(loaded.strategy, paper.strategy);
  EXPECT_EQ(loaded.workload.query_count, paper.workload.query_count);
  EXPECT_EQ(loaded.model.pfs.layout.strip_size(),
            paper.model.pfs.layout.strip_size());
}

TEST(ConfigLoaderTest, BasicOverrides) {
  const auto config = load_config(
      "nprocs = 24\nstrategy = MW\nquery_sync = true\ncompute_speed = 3.2\n");
  EXPECT_EQ(config.nprocs, 24u);
  EXPECT_EQ(config.strategy, Strategy::MW);
  EXPECT_TRUE(config.query_sync);
  EXPECT_DOUBLE_EQ(config.compute_speed, 3.2);
}

TEST(ConfigLoaderTest, WorkloadKeys) {
  const auto config = load_config(
      "query_count = 7\nfragment_count = 16\nresult_count_min = 10\n"
      "result_count_max = 20\nmin_result_bytes = 1KiB\nseed = 99\n"
      "database_bytes = 2GiB\n");
  EXPECT_EQ(config.workload.query_count, 7u);
  EXPECT_EQ(config.workload.fragment_count, 16u);
  EXPECT_EQ(config.workload.result_count_min, 10u);
  EXPECT_EQ(config.workload.result_count_max, 20u);
  EXPECT_EQ(config.workload.min_result_bytes, 1024u);
  EXPECT_EQ(config.workload.seed, 99u);
  EXPECT_EQ(config.workload.database_bytes, 2ull << 30);
}

TEST(ConfigLoaderTest, ModelKeys) {
  const auto config = load_config(
      "strip_size = 32KiB\nserver_count = 8\nnet_latency_us = 12\n"
      "disk_per_pair_ms = 3\n");
  EXPECT_EQ(config.model.pfs.layout.strip_size(), 32768u);
  EXPECT_EQ(config.model.pfs.layout.server_count(), 8u);
  EXPECT_EQ(config.model.network.latency, s3asim::sim::microseconds(12));
  EXPECT_EQ(config.model.pfs.disk.per_pair, s3asim::sim::milliseconds(3));
}

TEST(ConfigLoaderTest, HintsKeys) {
  const auto config = load_config("cb_nodes = 4\ncb_buffer_size = 1MiB\n");
  EXPECT_EQ(config.hints.cb_nodes, 4u);
  EXPECT_EQ(config.hints.cb_buffer_size, 1u << 20);
}

TEST(ConfigLoaderTest, HistogramSectionsApply) {
  const auto config = load_config(
      "[histogram query]\n100 200 1.0\n[histogram database]\n300 400 1.0\n");
  EXPECT_EQ(config.workload.query_histogram.min_value(), 100u);
  EXPECT_EQ(config.workload.database_histogram.max_value(), 400u);
}

TEST(ConfigLoaderTest, UnknownKeyRejected) {
  EXPECT_THROW((void)load_config("not_a_real_key = 5\n"),
               std::invalid_argument);
}

TEST(ConfigLoaderTest, UnknownStrategyRejected) {
  EXPECT_THROW((void)load_config("strategy = turbo\n"), std::invalid_argument);
}

// Error-path contract: a typo'd strategy name produces an actionable
// message — it echoes the offending spelling and lists every canonical one.
TEST(ConfigLoaderTest, UnknownStrategyMessageListsCanonicalSpellings) {
  try {
    (void)load_config("strategy = turbo\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("turbo"), std::string::npos) << message;
    for (const Strategy strategy : kAllStrategies)
      EXPECT_NE(message.find(strategy_name(strategy)), std::string::npos)
          << "message should list " << strategy_name(strategy) << ": "
          << message;
  }
}

TEST(ConfigLoaderTest, UnknownKeyMessageNamesTheKey) {
  try {
    (void)load_config("not_a_real_key = 5\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("not_a_real_key"),
              std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, AggregatorFaninKey) {
  const auto config = load_config("strategy = WW-Aggr\naggregator_fanin = 8\n");
  EXPECT_EQ(config.strategy, Strategy::WWAggr);
  EXPECT_EQ(config.aggregator_fanin, 8u);
  // 0 is valid ("one group spanning all workers").
  EXPECT_EQ(load_config("aggregator_fanin = 0\n").aggregator_fanin, 0u);
}

TEST(ConfigLoaderTest, NegativeAggregatorFaninRejected) {
  try {
    (void)load_config("aggregator_fanin = -3\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("aggregator_fanin"),
              std::string::npos)
        << error.what();
  }
}

// Strategy/fault-mode conflict: WW-Aggr's lockstep aggregation cannot
// tolerate perturbed workers, and the rejection must say so and point at a
// usable alternative rather than deadlock at runtime.
TEST(ConfigLoaderTest, AggrWithWorkerFaultConflictIsActionable) {
  auto config = load_config("nprocs = 6\nstrategy = WW-Aggr\n");
  config.fault.kills.push_back({2, s3asim::sim::seconds(1)});
  try {
    (void)run_simulation(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("WW-Aggr"), std::string::npos) << message;
    EXPECT_NE(message.find("deadlock"), std::string::npos) << message;
    EXPECT_NE(message.find("WW-List"), std::string::npos) << message;
  }
}

TEST(ConfigLoaderTest, AggrWithServerFaultStillRuns) {
  auto config = load_config(
      "nprocs = 6\nstrategy = WW-Aggr\nquery_count = 3\nfragment_count = 6\n"
      "result_count_min = 10\nresult_count_max = 20\n");
  config.fault.servers.push_back(
      {/*server=*/0, /*from=*/s3asim::sim::seconds(0),
       /*service_factor=*/2.0, /*stall=*/s3asim::sim::Time{0}});
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact);
}

// The strategy picks the collective algorithm (WW-CollList is list I/O
// plus synchronization), so no key selects it a second way.
TEST(ConfigLoaderTest, UnknownCollectiveRejected) {
  for (const char* value : {"list_sync", "psychic"}) {
    try {
      (void)load_config(std::string("collective_algorithm = ") + value);
      FAIL() << "expected an unrecognized-key error for " << value;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(
          message.find("unrecognized config keys: 'collective_algorithm'"),
          std::string::npos)
          << message;
    }
  }
}

TEST(ConfigLoaderTest, ServingKeysParse) {
  const auto config = load_config(
      "arrival_rate = 2.5\nadmit_policy = wfq\nadmit_depth = 16\n"
      "inflight_watermark = 4MiB\n"
      "tenants = gold:rate=2,weight=3|bronze:priority=1\n");
  EXPECT_DOUBLE_EQ(config.serving.arrival_rate_hz, 2.5);
  EXPECT_EQ(config.serving.policy, AdmitPolicy::WeightedFair);
  EXPECT_EQ(config.serving.admit_depth, 16u);
  EXPECT_EQ(config.serving.inflight_watermark_bytes, 4u << 20);
  ASSERT_EQ(config.serving.tenants.size(), 2u);
  EXPECT_EQ(config.serving.tenants[0].name, "gold");
  EXPECT_DOUBLE_EQ(config.serving.tenants[0].rate_hz, 2.0);
  EXPECT_DOUBLE_EQ(config.serving.tenants[0].weight, 3.0);
  EXPECT_EQ(config.serving.tenants[1].name, "bronze");
  EXPECT_EQ(config.serving.tenants[1].priority, 1u);
  EXPECT_TRUE(config.serving.enabled());
  EXPECT_FALSE(load_config("").serving.enabled());
}

TEST(ConfigLoaderTest, ArrivalTraceLoadsAndRewritesWorkload) {
  const std::string path = write_temp_trace(
      "good_trace.csv",
      "# t, tenant, query_size\n"
      "0.0, gold, 2000\n"
      "0.5, bronze, 1500\n"
      "0.5, gold, 3000\n");
  const auto config = load_config("arrival_trace = " + path + "\n");
  EXPECT_TRUE(config.serving.enabled());
  ASSERT_EQ(config.serving.trace_arrivals.size(), 3u);
  EXPECT_EQ(config.workload.query_count, 3u);
  ASSERT_EQ(config.workload.query_lengths.size(), 3u);
  EXPECT_EQ(config.workload.query_lengths[0], 2000u);
  EXPECT_EQ(config.workload.query_lengths[2], 3000u);
  // Tenants auto-register in first-appearance order when none are declared.
  ASSERT_EQ(config.serving.tenants.size(), 2u);
  EXPECT_EQ(config.serving.tenants[0].name, "gold");
  EXPECT_EQ(config.serving.tenants[1].name, "bronze");
  EXPECT_EQ(config.serving.trace_arrivals[1].second, 1u);
}

// Error-path contract: a trace whose timestamps go backwards is rejected
// with the 1-based line number and an actionable fix.
TEST(ConfigLoaderTest, ArrivalTraceRejectsNonMonotonicTimestamps) {
  const std::string path = write_temp_trace(
      "unsorted_trace.csv", "1.0, a, 100\n0.5, a, 100\n");
  try {
    (void)load_config("arrival_trace = " + path + "\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find("sorted by time"), std::string::npos) << message;
  }
}

// Error-path contract: an undeclared tenant id names the offender, lists
// the declared set, and says how to fix it.
TEST(ConfigLoaderTest, ArrivalTraceRejectsUnknownTenant) {
  const std::string path =
      write_temp_trace("ghost_trace.csv", "0.5, ghost, 100\n");
  try {
    (void)load_config("tenants = gold:rate=1|bronze:rate=1\narrival_trace = " +
                      path + "\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("ghost"), std::string::npos) << message;
    EXPECT_NE(message.find("gold"), std::string::npos) << message;
    EXPECT_NE(message.find("bronze"), std::string::npos) << message;
    EXPECT_NE(message.find("'tenants' key"), std::string::npos) << message;
  }
}

TEST(ConfigLoaderTest, ArrivalTraceRejectsMalformedRows) {
  const std::string missing_field =
      write_temp_trace("short_trace.csv", "0.5, a\n");
  EXPECT_THROW((void)load_config("arrival_trace = " + missing_field + "\n"),
               std::invalid_argument);
  const std::string negative_time =
      write_temp_trace("negative_trace.csv", "-1.0, a, 100\n");
  EXPECT_THROW((void)load_config("arrival_trace = " + negative_time + "\n"),
               std::invalid_argument);
  const std::string bad_size =
      write_temp_trace("size_trace.csv", "0.5, a, 0\n");
  EXPECT_THROW((void)load_config("arrival_trace = " + bad_size + "\n"),
               std::invalid_argument);
  const std::string all_comments =
      write_temp_trace("empty_trace.csv", "# nothing\n\n");
  EXPECT_THROW((void)load_config("arrival_trace = " + all_comments + "\n"),
               std::invalid_argument);
}

TEST(ConfigLoaderTest, MissingArrivalTraceFileThrows) {
  EXPECT_THROW((void)load_config("arrival_trace = /no/such/trace.csv\n"),
               std::runtime_error);
}

TEST(ConfigLoaderTest, BadServingKeysRejected) {
  EXPECT_THROW((void)load_config("admit_depth = 0\n"), std::invalid_argument);
  EXPECT_THROW((void)load_config("admit_policy = psychic\n"),
               std::invalid_argument);
  EXPECT_THROW((void)load_config("tenants = gold:turbo=1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)load_config("tenants = gold:rate=1|gold:rate=2\n"),
               std::invalid_argument);
}

TEST(ConfigLoaderTest, CacheKeysApply) {
  const auto config = load_config(
      "strip_size = 64KiB\ncache_capacity = 16MiB\ncache_block = 16KiB\n"
      "token_granularity = 64KiB\n");
  EXPECT_TRUE(config.model.pfs.cache.enabled());
  EXPECT_EQ(config.model.pfs.cache.capacity_bytes, 16u * 1024 * 1024);
  EXPECT_EQ(config.model.pfs.cache.block_bytes, 16u * 1024);
  EXPECT_EQ(config.model.pfs.cache.token_bytes, 64u * 1024);
}

TEST(ConfigLoaderTest, CacheOffByDefault) {
  EXPECT_FALSE(load_config("").model.pfs.cache.enabled());
}

TEST(ConfigLoaderTest, ReadPathKeysParse) {
  const auto config = load_config(
      "database_bytes = 32MiB\ndb_chunk_bytes = 4KiB\n"
      "read_method = sieve\nsieve_buffer = 512KiB\n");
  EXPECT_EQ(config.workload.db_chunk_bytes, 4u * 1024);
  EXPECT_EQ(config.read_method, s3asim::mpiio::NoncontigMethod::Sieve);
  EXPECT_EQ(config.hints.sieve_buffer_bytes, 512u * 1024);
  // Defaults: contiguous fragments, list reads, 4 MiB sieve buffer.
  const auto defaults = load_config("");
  EXPECT_EQ(defaults.workload.db_chunk_bytes, 0u);
  EXPECT_EQ(defaults.read_method, s3asim::mpiio::NoncontigMethod::ListIo);
  EXPECT_EQ(defaults.hints.sieve_buffer_bytes, 4u * 1024 * 1024);
}

TEST(ConfigLoaderTest, UnknownReadMethodRejected) {
  try {
    (void)load_config("read_method = mmap\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("read_method"), std::string::npos) << message;
    EXPECT_NE(message.find("sieve"), std::string::npos) << message;
  }
}

TEST(ConfigLoaderTest, ZeroSieveBufferRejectedNamingKey) {
  try {
    (void)load_config("sieve_buffer = 0\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("sieve_buffer"),
              std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, SieveBufferSmallerThanCacheBlockRejectedNamingBoth) {
  try {
    (void)load_config(
        "strip_size = 64KiB\ncache_capacity = 1MiB\ncache_block = 16KiB\n"
        "token_granularity = 64KiB\nsieve_buffer = 4KiB\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("sieve_buffer"), std::string::npos) << message;
    EXPECT_NE(message.find("cache_block"), std::string::npos) << message;
  }
}

TEST(ConfigLoaderTest, ZeroCacheCapacityRejectedNamingKey) {
  try {
    (void)load_config("cache_capacity = 0\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cache_capacity"),
              std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, NegativeCacheCapacityRejectedNamingKey) {
  try {
    (void)load_config("cache_capacity = -4MiB\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cache_capacity"),
              std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, CacheBlockMustDivideStripNamingKey) {
  try {
    (void)load_config(
        "strip_size = 64KiB\ncache_capacity = 1MiB\ncache_block = 24KiB\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("cache_block"), std::string::npos) << message;
    EXPECT_NE(message.find("strip_size"), std::string::npos) << message;
  }
}

TEST(ConfigLoaderTest, TokenGranularityFinerThanBlockRejectedNamingKey) {
  try {
    (void)load_config(
        "cache_capacity = 1MiB\ncache_block = 64KiB\n"
        "token_granularity = 16KiB\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("token_granularity"),
              std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, CacheCapacityBelowOneBlockRejectedNamingKey) {
  try {
    (void)load_config("cache_capacity = 4KiB\ncache_block = 16KiB\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cache_capacity"),
              std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, LoadedConfigActuallyRuns) {
  const auto config = load_config(
      "nprocs = 4\nquery_count = 3\nfragment_count = 6\n"
      "result_count_min = 20\nresult_count_max = 40\nstrategy = WW-List\n"
      "strip_size = 4KiB\nserver_count = 4\n"
      "[histogram query]\n500 2000 1.0\n[histogram database]\n500 4000 1.0\n");
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact);
  EXPECT_EQ(stats.nprocs, 4u);
}

// ---------------------------------------------------------------------------
// Membership keys (ISSUE 10): worker_classes / joins / elastic knobs parse
// into MembershipConfig, and malformed specs die with messages that name
// the offending clause.
// ---------------------------------------------------------------------------

TEST(ConfigLoaderTest, WorkerClassesParsed) {
  const auto config = load_config(
      "worker_classes = standard:speed=1,count=3|accel:speed=4,count=1\n");
  ASSERT_EQ(config.membership.classes.size(), 2u);
  EXPECT_EQ(config.membership.classes[0].name, "standard");
  EXPECT_DOUBLE_EQ(config.membership.classes[0].speed, 1.0);
  EXPECT_EQ(config.membership.classes[0].count, 3u);
  EXPECT_EQ(config.membership.classes[1].name, "accel");
  EXPECT_DOUBLE_EQ(config.membership.classes[1].speed, 4.0);
  EXPECT_EQ(config.membership.classes[1].count, 1u);
  EXPECT_TRUE(config.membership.heterogeneous());
  EXPECT_FALSE(config.membership.dynamic());
}

TEST(ConfigLoaderTest, JoinsParsedWithTimeGrammar) {
  const auto config =
      load_config("joins = worker=4,at=2s|worker=7,at=1500ms\n");
  ASSERT_EQ(config.membership.joins.size(), 2u);
  EXPECT_EQ(config.membership.joins[0].rank, 4u);
  EXPECT_EQ(config.membership.joins[0].at, sim::seconds(2));
  EXPECT_EQ(config.membership.joins[1].rank, 7u);
  EXPECT_EQ(config.membership.joins[1].at, sim::milliseconds(1500));
  EXPECT_TRUE(config.membership.dynamic());
}

TEST(ConfigLoaderTest, ElasticKnobsParsed) {
  const auto config = load_config(
      "elastic = true\nmin_workers = 2\nautoscale_target = 6\n"
      "autoscale_cooldown_ms = 500\n");
  EXPECT_TRUE(config.membership.elastic);
  EXPECT_EQ(config.membership.min_workers, 2u);
  EXPECT_DOUBLE_EQ(config.membership.autoscale_target, 6.0);
  EXPECT_EQ(config.membership.autoscale_cooldown, sim::milliseconds(500));
}

TEST(ConfigLoaderTest, WorkerClassZeroSpeedRejectedNamingClass) {
  try {
    (void)load_config("worker_classes = standard:speed=1|slow:speed=0\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("slow"), std::string::npos) << message;
    EXPECT_NE(message.find("speed"), std::string::npos) << message;
  }
}

TEST(ConfigLoaderTest, WorkerClassUnknownFieldListsExpected) {
  try {
    (void)load_config("worker_classes = standard:rate=2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("rate"), std::string::npos) << message;
    EXPECT_NE(message.find("expected"), std::string::npos) << message;
  }
}

TEST(ConfigLoaderTest, DuplicateWorkerClassNameRejected) {
  try {
    (void)load_config("worker_classes = a:speed=1|a:speed=2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, JoinWithoutTimeRejected) {
  try {
    (void)load_config("joins = worker=4\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("at"), std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, DuplicateJoinWorkerRejected) {
  try {
    (void)load_config("joins = worker=4,at=1|worker=4,at=2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, JoinClassWithoutDeclaredClassesRejected) {
  try {
    (void)load_config("joins = worker=4,at=2,class=gpu\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("worker 4"), std::string::npos) << message;
    EXPECT_NE(message.find("worker_classes"), std::string::npos) << message;
  }
}

TEST(ConfigLoaderTest, NegativeAutoscaleTargetRejectedNamingKey) {
  try {
    (void)load_config("autoscale_target = -3\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("autoscale_target"),
              std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, NegativeMinWorkersRejectedNamingKey) {
  try {
    (void)load_config("min_workers = -1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("min_workers"), std::string::npos)
        << error.what();
  }
}

TEST(ConfigLoaderTest, GroupsKeyParsesAndDefaultsToOne) {
  EXPECT_EQ(load_config("").groups, 1u);
  EXPECT_EQ(load_config("nprocs = 8\ngroups = 4\n").groups, 4u);
}

TEST(ConfigLoaderTest, BadGroupsRejectedNamingKey) {
  // Garbage and values below 1 fail at load time; a negative count must
  // not wrap into a huge unsigned one.
  for (const char* value : {"abc", "2x", "0", "-1"}) {
    SCOPED_TRACE(value);
    try {
      (void)load_config(std::string("groups = ") + value + "\n");
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("'groups'"), std::string::npos)
          << error.what();
    }
  }
}

TEST(ConfigLoaderTest, UnsignedKeysRejectValuesThatWouldWrap) {
  // Each key is a 32-bit unsigned count: -1 and 2^32 must be rejected
  // naming the key, not wrapped into 4294967295 and 0.
  const char* const keys[] = {
      "nprocs",           "groups",           "queries_per_flush",
      "query_count",      "fragment_count",   "result_count_min",
      "result_count_max", "server_count",     "cb_nodes",
      "aggregator_fanin", "admit_depth",      "min_workers"};
  for (const char* key : keys) {
    for (const char* value : {"-1", "4294967296"}) {
      SCOPED_TRACE(std::string(key) + " = " + value);
      try {
        (void)load_config(std::string(key) + " = " + value + "\n");
        ADD_FAILURE() << "expected std::invalid_argument";
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("key '" + std::string(key) +
                                                 "'"),
                  std::string::npos)
            << error.what();
      }
    }
  }
}

TEST(ConfigLoaderTest, UnsignedKeysKeepTheirLargestValue) {
  // 2^32 - 1 is in range: loading it does not run anything that large.
  const auto config = load_config(
      "query_count = 4294967295\nfragment_count = 4294967295\n"
      "cb_nodes = 4294967295\n");
  EXPECT_EQ(config.workload.query_count, 4294967295u);
  EXPECT_EQ(config.workload.fragment_count, 4294967295u);
  EXPECT_EQ(config.hints.cb_nodes, 4294967295u);
}

// validate_membership runs at simulation entry (the loader cannot see the
// strategy/membership interaction until both are final).
TEST(ConfigLoaderTest, JoinNamingUnknownSpeedClassListsKnownClasses) {
  auto config = load_config(
      "nprocs = 5\nworker_classes = std:speed=1\n"
      "joins = worker=4,at=2,class=gpu\n");
  try {
    (void)run_simulation(config);
    FAIL() << "expected failure naming the unknown class";
  } catch (const std::exception& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("gpu"), std::string::npos) << message;
    EXPECT_NE(message.find("known classes: std"), std::string::npos) << message;
  }
}

// Membership changes (elastic serving, a scheduled join) are rejected for
// exactly the lockstep-flush strategies, naming the strategy and an
// independent-writer alternative; every other strategy runs.
TEST(ConfigLoaderTest, ElasticWithCollectiveStrategyRejectedWithAlternatives) {
  auto elastic = test_config();
  elastic.serving.arrival_rate_hz = 2.0;
  elastic.membership.elastic = true;
  elastic.membership.min_workers = 1;
  auto join = test_config();
  join.membership.joins.push_back(
      {/*rank=*/4, /*at=*/s3asim::sim::milliseconds(200), /*speed_class=*/""});
  for (SimConfig config : {elastic, join}) {
    for (const Strategy strategy : kAllStrategies) {
      config.strategy = strategy;
      const std::string label =
          std::string(strategy_name(strategy)) +
          (config.membership.elastic ? " elastic" : " join");
      const bool rejected = strategy == Strategy::WWColl ||
                            strategy == Strategy::WWCollList ||
                            strategy == Strategy::WWAggr;
      try {
        const auto stats = run_simulation(config);
        EXPECT_FALSE(rejected) << label << ": expected the strategy conflict";
        EXPECT_TRUE(stats.file_exact) << label;
      } catch (const std::exception& error) {
        const std::string message = error.what();
        EXPECT_TRUE(rejected) << label << ": " << message;
        const std::string named = std::string("strategy ") +
                                  strategy_name(strategy) + " synchronizes";
        EXPECT_NE(message.find(named), std::string::npos)
            << label << ": " << message;
        EXPECT_NE(message.find("WW-List"), std::string::npos)
            << label << ": " << message;
      }
    }
  }
}

}  // namespace
