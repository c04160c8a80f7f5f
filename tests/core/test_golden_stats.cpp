/// Per-strategy golden statistics: one `test_config()` run per strategy
/// with every headline RunStats aggregate pinned exactly.  The simulator is
/// deterministic, so any change to these numbers is a behavior change in
/// that strategy's I/O path (or in the shared runtimes) and must be a
/// conscious diff here — this is the regression net under the pluggable
/// strategy registry.  To regenerate after an intentional change, print the
/// same aggregates from a `run_simulation(test_config())` loop over
/// `kAllStrategies` (WW-Aggr pinned at aggregator_fanin = 2).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "core/membership.hpp"
#include "core/serving.hpp"
#include "core/simulation.hpp"
#include "fault/fault.hpp"
#include "sim/time.hpp"
#include "util/units.hpp"

namespace {

using namespace s3asim::core;
using s3asim::mpiio::NoncontigMethod;
using s3asim::util::KiB;
using s3asim::util::MiB;

struct Golden {
  Strategy strategy;
  double wall_seconds;
  std::uint64_t events;
  std::uint64_t tasks_processed;
  std::uint64_t output_bytes;
  std::uint64_t bytes_written;
  std::uint64_t writes_issued;
};

// clang-format off
constexpr Golden kGolden[] = {
    {Strategy::MW,               0.815129586, 1243ull, 32ull, 1079929ull, 1079929ull,  4ull},
    {Strategy::WWPosix,          1.301727590, 3951ull, 32ull, 1079929ull, 1079929ull, 16ull},
    {Strategy::WWList,           0.972346988, 2328ull, 32ull, 1079929ull, 1079929ull, 16ull},
    {Strategy::WWColl,           3.588998786, 2744ull, 32ull, 1079929ull, 1079929ull, 16ull},
    {Strategy::WWCollList,       1.104594724, 2470ull, 32ull, 1079929ull, 1079929ull, 16ull},
    // N-N writes everything twice: once to the private per-worker files,
    // once when the master assembles the final sorted file.
    {Strategy::WWFilePerProcess, 1.221314748, 3678ull, 32ull, 1079929ull, 2159858ull, 36ull},
    // fanin=2 over 4 workers: 2 aggregators issue the group writes.
    {Strategy::WWAggr,           0.909560712, 1761ull, 32ull, 1079929ull, 1079929ull,  8ull},
    // Sieving coalesces each flush's extents into one contiguous window
    // (per-query regions are dense: no holes, no RMW) — fewer OL pairs
    // than WW-List, hence the lower wall clock at this small scale.
    {Strategy::WWSieve,          0.831030930, 3008ull, 32ull, 1079929ull, 1079929ull, 16ull},
};
// clang-format on

TEST(GoldenStatsTest, EveryStrategyMatchesPinnedAggregates) {
  // Every enumerator must carry a pin — adding a strategy without extending
  // the table is a test failure, not a silent gap.
  ASSERT_EQ(std::size(kGolden), std::size(kAllStrategies));

  for (const Golden& golden : kGolden) {
    auto config = test_config();
    config.strategy = golden.strategy;
    if (golden.strategy == Strategy::WWAggr) config.aggregator_fanin = 2;
    const RunStats stats = run_simulation(config);

    SCOPED_TRACE(strategy_name(golden.strategy));
    EXPECT_TRUE(stats.file_exact);
    EXPECT_DOUBLE_EQ(stats.wall_seconds, golden.wall_seconds);
    EXPECT_EQ(stats.events, golden.events);
    EXPECT_EQ(stats.output_bytes, golden.output_bytes);

    std::uint64_t tasks = 0;
    std::uint64_t bytes = 0;
    std::uint64_t writes = 0;
    for (const RankStats& rank : stats.ranks) {
      tasks += rank.tasks_processed;
      bytes += rank.bytes_written;
      writes += rank.writes_issued;
    }
    EXPECT_EQ(tasks, golden.tasks_processed);
    EXPECT_EQ(bytes, golden.bytes_written);
    EXPECT_EQ(writes, golden.writes_issued);
  }
}

// ---- Cache, sieve and read paths -------------------------------------------
// The table above runs every strategy with the cache off and no database
// I/O.  These rows pin the other client paths: the write-back cache and its
// lease traffic, interleaved-database reads by each access method, and
// sieved writes whose windows need a read-modify-write pre-read.  To
// regenerate, print the same aggregates and the nonzero `path_counters`
// from a `run_simulation` loop over the rows.

/// The cache on at its default granularity (64 KiB blocks, 1 MiB leases)
/// over 64 KiB strips, large enough that only syncs and close write back.
SimConfig cached(Strategy strategy) {
  SimConfig config = test_config();
  config.strategy = strategy;
  config.model.pfs.layout = s3asim::pfs::Layout(64 * KiB, 4);
  config.model.pfs.cache.capacity_bytes = 64 * MiB;
  config.model.pfs.cache.block_bytes = 64 * KiB;
  config.model.pfs.cache.token_bytes = MiB;
  return config;
}

/// A cache a fraction of one flush, with leases coarser than one worker's
/// extents: absorbs evict, and workers revoke each other's leases.
SimConfig small_cache() {
  SimConfig config = test_config();
  config.strategy = Strategy::WWList;
  config.sync_after_write = false;
  config.model.pfs.cache.capacity_bytes = 32 * KiB;
  config.model.pfs.cache.block_bytes = 4 * KiB;
  config.model.pfs.cache.token_bytes = 16 * KiB;
  return config;
}

/// A formatdb-style interleaved database four times the size of worker
/// memory, so fragments are streamed, dropped and streamed again with
/// `method`, through a client cache of `cache_bytes` when nonzero.
SimConfig interleaved(NoncontigMethod method, std::uint64_t cache_bytes = 0) {
  SimConfig config = test_config();
  config.workload.database_bytes = 8 * MiB;
  config.workload.db_chunk_bytes = 16 * KiB;
  config.worker_memory_bytes = 2 * MiB;
  config.read_method = method;
  config.hints.sieve_buffer_bytes = 256 * KiB;
  if (cache_bytes != 0) {
    config.model.pfs.cache.capacity_bytes = cache_bytes;
    config.model.pfs.cache.block_bytes = 16 * KiB;
    config.model.pfs.cache.token_bytes = 64 * KiB;
  }
  return config;
}

/// WW-Sieve flushing every two queries: a worker's extents then span
/// other workers' regions, so its windows have holes to pre-read.
SimConfig sieve_with_holes() {
  SimConfig config = test_config();
  config.strategy = Strategy::WWSieve;
  config.queries_per_flush = 2;
  return config;
}

/// The `cache.*` and `sieve.*` counters of a run that are nonzero.
std::map<std::string, std::uint64_t> path_counters(const RunStats& stats) {
  const CacheRunStats& c = stats.cache;
  const SieveRunStats& s = stats.sieve;
  const std::pair<const char*, std::uint64_t> all[] = {
      {"cache.read_hits", c.read_hits},
      {"cache.read_misses", c.read_misses},
      {"cache.write_hits", c.write_hits},
      {"cache.write_misses", c.write_misses},
      {"cache.evictions", c.evictions},
      {"cache.writebacks", c.writebacks},
      {"cache.writeback_bytes", c.writeback_bytes},
      {"cache.invalidations", c.invalidations},
      {"cache.close_writebacks", c.close_writebacks},
      {"cache.token_grants", c.token_grants},
      {"cache.token_revocations", c.token_revocations},
      {"cache.token_conflicts", c.token_conflicts},
      {"cache.metadata_ops", c.metadata_ops},
      {"sieve.reads", s.reads},
      {"sieve.writes", s.writes},
      {"sieve.rmw_reads", s.rmw_reads},
      {"sieve.holes_protected", s.holes_protected},
      {"sieve.read_useful_bytes", s.read_useful_bytes},
      {"sieve.read_transferred_bytes", s.read_transferred_bytes},
      {"sieve.write_useful_bytes", s.write_useful_bytes},
      {"sieve.write_transferred_bytes", s.write_transferred_bytes},
  };
  std::map<std::string, std::uint64_t> nonzero;
  for (const auto& [name, value] : all)
    if (value != 0) nonzero.emplace(name, value);
  return nonzero;
}

struct PathGolden {
  const char* name;
  SimConfig config;
  double wall_seconds;
  std::uint64_t events;
  std::uint64_t server_requests;
  std::uint64_t server_pairs;
  std::uint64_t db_bytes_read;
  std::map<std::string, std::uint64_t> counters;  ///< nonzero ones only
};

TEST(GoldenStatsTest, CacheAndReadPathsMatchPinnedAggregates) {
  // clang-format off
  const PathGolden kPaths[] = {
    {"MW cache", cached(Strategy::MW),
     0.818128679, 1264ull, 16ull, 16ull, 0ull,
     {{"cache.metadata_ops", 4}, {"cache.token_grants", 2},
      {"cache.write_hits", 3}, {"cache.write_misses", 17},
      {"cache.writeback_bytes", 1079929}, {"cache.writebacks", 4}}},
    {"WW-POSIX cache", cached(Strategy::WWPosix),
     0.911642310, 2581ull, 63ull, 181ull, 0ull,
     {{"cache.invalidations", 70}, {"cache.metadata_ops", 23},
      {"cache.token_conflicts", 17}, {"cache.token_grants", 18},
      {"cache.token_revocations", 17}, {"cache.write_hits", 109},
      {"cache.write_misses", 74}, {"cache.writeback_bytes", 1079929},
      {"cache.writebacks", 18}}},
    {"WW-List cache", cached(Strategy::WWList),
     0.896483383, 2553ull, 63ull, 181ull, 0ull,
     {{"cache.invalidations", 70}, {"cache.metadata_ops", 21},
      {"cache.token_conflicts", 15}, {"cache.token_grants", 16},
      {"cache.token_revocations", 15}, {"cache.write_hits", 109},
      {"cache.write_misses", 74}, {"cache.writeback_bytes", 1079929},
      {"cache.writebacks", 16}}},
    {"WW-Sieve cache", cached(Strategy::WWSieve),
     0.896483383, 2553ull, 63ull, 181ull, 0ull,
     {{"cache.invalidations", 70}, {"cache.metadata_ops", 21},
      {"cache.token_conflicts", 15}, {"cache.token_grants", 16},
      {"cache.token_revocations", 15}, {"cache.write_hits", 109},
      {"cache.write_misses", 74}, {"cache.writeback_bytes", 1079929},
      {"cache.writebacks", 16}}},
    {"small cache", small_cache(),
     1.227155391, 3555ull, 187ull, 233ull, 0ull,
     {{"cache.close_writebacks", 16}, {"cache.evictions", 180},
      {"cache.invalidations", 213}, {"cache.metadata_ops", 20},
      {"cache.token_conflicts", 67}, {"cache.token_grants", 56},
      {"cache.token_revocations", 67}, {"cache.write_hits", 19},
      {"cache.write_misses", 415}, {"cache.writeback_bytes", 1079929},
      {"cache.writebacks", 121}}},
    {"interleaved posix", interleaved(NoncontigMethod::Posix),
     3.201292290, 11307ull, 59ull, 225ull, 13631488ull,
     {}},
    {"interleaved list", interleaved(NoncontigMethod::ListIo),
     2.633097314, 2378ull, 59ull, 225ull, 13631488ull,
     {}},
    {"interleaved sieve", interleaved(NoncontigMethod::Sieve),
     4.725080532, 20847ull, 59ull, 209ull, 14680064ull,
     {{"sieve.read_transferred_bytes", 66060288},
      {"sieve.read_useful_bytes", 14680064}, {"sieve.reads", 448}}},
    {"interleaved posix small cache", interleaved(NoncontigMethod::Posix, MiB),
     3.220413793, 15376ull, 59ull, 225ull, 13631488ull,
     {{"cache.evictions", 659}, {"cache.invalidations", 129},
      {"cache.metadata_ops", 533}, {"cache.read_misses", 832},
      {"cache.token_conflicts", 17}, {"cache.token_grants", 527},
      {"cache.token_revocations", 17}, {"cache.write_hits", 61},
      {"cache.write_misses", 176}, {"cache.writeback_bytes", 1079929},
      {"cache.writebacks", 15}}},
    {"interleaved sieve cache", interleaved(NoncontigMethod::Sieve, 6 * MiB),
     2.615308176, 2661ull, 59ull, 225ull, 13631488ull,
     {{"cache.invalidations", 131}, {"cache.metadata_ops", 29},
      {"cache.read_hits", 64}, {"cache.read_misses", 768},
      {"cache.token_conflicts", 15}, {"cache.token_grants", 527},
      {"cache.token_revocations", 15}, {"cache.write_hits", 60},
      {"cache.write_misses", 178}, {"cache.writeback_bytes", 1079929},
      {"cache.writebacks", 15}}},
    {"WW-Sieve holes", sieve_with_holes(),
     0.799996571, 2022ull, 32ull, 32ull, 0ull,
     {{"sieve.holes_protected", 160}, {"sieve.rmw_reads", 8},
      {"sieve.write_transferred_bytes", 4129563},
      {"sieve.write_useful_bytes", 1079929}, {"sieve.writes", 8}}},
  };
  // clang-format on

  for (const PathGolden& golden : kPaths) {
    const RunStats stats = run_simulation(golden.config);

    SCOPED_TRACE(golden.name);
    EXPECT_TRUE(stats.file_exact);
    EXPECT_DOUBLE_EQ(stats.wall_seconds, golden.wall_seconds);
    EXPECT_EQ(stats.events, golden.events);
    EXPECT_EQ(stats.fs.server_requests, golden.server_requests);
    EXPECT_EQ(stats.fs.server_pairs, golden.server_pairs);
    EXPECT_EQ(stats.db_bytes_read, golden.db_bytes_read);
    EXPECT_EQ(path_counters(stats), golden.counters);
  }
}

// ---- The master's event loop ------------------------------------------------
// The rows above all run Algorithm 1's closed-batch loop.  These run the
// event loop (serving, fault recovery, scheduled joins) down its branches:
// - WW-List, a worker killed mid-run: its task goes to a parked survivor,
//   and the master repairs the hole its lost write left;
// - WW-Coll, a worker killed mid-run: reclaimed frontier tasks are pushed
//   unsolicited to defer-blocked survivors, and a worker retired while
//   alive gets Done on its next request;
// - WW-List, every score of one worker dropped: the mute worker is retired
//   while parked and released with Done;
// - WW-List, one scheduled join: the Welcome;
// - two-tenant WFQ serving that sheds: parked requests, feed_parked, and
//   Done once the stream is over.
// To regenerate, print the same aggregates and the nonzero
// `event_loop_counters` from a `run_simulation` loop over the rows.

SimConfig faulted(Strategy strategy, const char* plan) {
  SimConfig config = test_config();
  config.strategy = strategy;
  config.fault_detection_timeout = s3asim::sim::seconds(2);
  config.fault = s3asim::fault::parse_fault_plan(plan);
  return config;
}

SimConfig scheduled_join() {
  SimConfig config = test_config();
  config.membership.joins = parse_joins("worker=4,at=200ms");
  return config;
}

SimConfig shedding_wfq() {
  SimConfig config = test_config();
  config.workload.query_count = 12;
  config.serving.arrival_rate_hz = 10.0;
  config.serving.tenants = parse_tenants("gold:rate=2,weight=3|bronze:rate=1");
  config.serving.policy = AdmitPolicy::WeightedFair;
  config.serving.admit_depth = 2;
  return config;
}

/// The `faults.*` counters and the serving outcome of a run that are
/// nonzero.
std::map<std::string, std::uint64_t> event_loop_counters(
    const RunStats& stats) {
  const FaultStats& f = stats.faults;
  const std::pair<const char*, std::uint64_t> all[] = {
      {"faults.workers_died", f.workers_died},
      {"faults.workers_retired", f.workers_retired},
      {"faults.tasks_reassigned", f.tasks_reassigned},
      {"faults.duplicate_completions", f.duplicate_completions},
      {"faults.scores_dropped", f.scores_dropped},
      {"faults.repaired_bytes", f.repaired_bytes},
      {"serving.completed", stats.serving.overall.completed},
      {"serving.shed", stats.serving.overall.shed},
  };
  std::map<std::string, std::uint64_t> nonzero;
  for (const auto& [name, value] : all)
    if (value != 0) nonzero.emplace(name, value);
  return nonzero;
}

struct EventLoopGolden {
  const char* name;
  SimConfig config;
  double wall_seconds;
  std::uint64_t events;
  std::map<std::string, std::uint64_t> counters;  ///< nonzero ones only
};

TEST(GoldenStatsTest, EventLoopPathsMatchPinnedAggregates) {
  // clang-format off
  const EventLoopGolden kRows[] = {
    {"WW-List kill", faulted(Strategy::WWList, "kill:worker=1,at=500ms"),
     2.713793773, 2306ull,
     {{"faults.repaired_bytes", 14514}, {"faults.tasks_reassigned", 1},
      {"faults.workers_died", 1}, {"faults.workers_retired", 1}}},
    {"WW-Coll kill", faulted(Strategy::WWColl, "kill:worker=2,at=1500ms"),
     4.954945174, 2623ull,
     {{"faults.duplicate_completions", 1}, {"faults.tasks_reassigned", 2},
      {"faults.workers_died", 1}, {"faults.workers_retired", 2}}},
    {"WW-List drop", faulted(Strategy::WWList, "drop:worker=1,prob=1"),
     3.038667125, 2159ull,
     {{"faults.scores_dropped", 7}, {"faults.tasks_reassigned", 7},
      {"faults.workers_retired", 1}}},
    {"WW-List join", scheduled_join(),
     1.024868935, 2308ull,
     {}},
    {"WFQ serving", shedding_wfq(),
     2.015450210, 4556ull,
     {{"serving.completed", 8}, {"serving.shed", 4}}},
  };
  // clang-format on

  for (const EventLoopGolden& golden : kRows) {
    const RunStats stats = run_simulation(golden.config);

    SCOPED_TRACE(golden.name);
    EXPECT_TRUE(stats.file_exact);
    EXPECT_DOUBLE_EQ(stats.wall_seconds, golden.wall_seconds);
    EXPECT_EQ(stats.events, golden.events);
    EXPECT_EQ(event_loop_counters(stats), golden.counters);
  }
}

}  // namespace
