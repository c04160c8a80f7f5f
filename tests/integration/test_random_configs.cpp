#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

/// Property-based sweep: randomized-but-seeded configurations must always
/// terminate, verify their output file exactly, account every task, keep
/// per-rank phase sums equal to wall time, and rerun byte-identically on
/// another thread — across every strategy, with and without the client
/// cache, over multi-bin query and database histograms, over contiguous
/// and interleaved databases read by every access method, over hybrid
/// group counts, and through whole-run crashes resumed from the last
/// flushed batch.

namespace {

using namespace s3asim::core;
using s3asim::mpiio::NoncontigMethod;
using s3asim::util::BoxHistogram;
using s3asim::util::HistogramBin;
using s3asim::util::KiB;
using s3asim::util::MiB;
using s3asim::util::Xoshiro256;
namespace sim = s3asim::sim;

constexpr NoncontigMethod kReadMethods[] = {
    NoncontigMethod::Posix, NoncontigMethod::ListIo, NoncontigMethod::Sieve};

/// One to five bins inside [lo, hi], each of zero weight with probability
/// 0.3, with a positive total weight.
BoxHistogram random_histogram(Xoshiro256& rng, std::uint64_t lo,
                              std::uint64_t hi) {
  std::vector<HistogramBin> bins(rng.uniform_u64(1, 5));
  bool positive = false;
  for (HistogramBin& bin : bins) {
    const std::uint64_t a = rng.uniform_u64(lo, hi);
    const std::uint64_t b = rng.uniform_u64(lo, hi);
    bin = {std::min(a, b), std::max(a, b),
           rng.uniform() < 0.3 ? 0.0 : 0.1 + rng.uniform() * 4.0};
    positive = positive || bin.weight > 0.0;
  }
  if (!positive) bins[rng.uniform_u64(0, bins.size() - 1)].weight = 1.0;
  return BoxHistogram{std::move(bins)};
}

/// A sampled configuration and, when it plans a crash, the crash time as a
/// fraction of the crash-free wall time (0 = no crash).
struct Sample {
  SimConfig config;
  double crash_fraction = 0.0;
};

Sample random_sample(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  SimConfig config;
  config.nprocs = static_cast<std::uint32_t>(rng.uniform_u64(2, 12));
  config.strategy =
      kAllStrategies[rng.uniform_u64(0, std::size(kAllStrategies) - 1)];
  config.query_sync = rng.uniform() < 0.5;
  config.compute_speed = 0.25 + rng.uniform() * 4.0;
  config.queries_per_flush = static_cast<std::uint32_t>(rng.uniform_u64(1, 4));
  config.sync_after_write = rng.uniform() < 0.8;

  config.workload.seed = seed * 31 + 7;
  config.workload.query_count = static_cast<std::uint32_t>(rng.uniform_u64(1, 6));
  config.workload.fragment_count =
      static_cast<std::uint32_t>(rng.uniform_u64(1, 12));
  config.workload.result_count_min =
      static_cast<std::uint32_t>(rng.uniform_u64(1, 30));
  config.workload.result_count_max =
      config.workload.result_count_min +
      static_cast<std::uint32_t>(rng.uniform_u64(0, 50));
  config.workload.min_result_bytes = rng.uniform_u64(16, 2048);
  config.workload.query_histogram = random_histogram(rng, 64, 4096);
  config.workload.database_histogram = random_histogram(rng, 64, 100'000);

  const std::uint64_t strip = 1ull << rng.uniform_u64(9, 17);  // 512 B–128 KiB
  const auto servers = static_cast<std::uint32_t>(rng.uniform_u64(1, 12));
  config.model.pfs.layout = s3asim::pfs::Layout(strip, servers);
  if (rng.uniform() < 0.5) {
    // A valid cache: blocks divide the strip, leases and capacity are
    // whole blocks.
    auto& cache = config.model.pfs.cache;
    cache.block_bytes =
        std::max<std::uint64_t>(strip >> rng.uniform_u64(0, 2), 512);
    cache.token_bytes = cache.block_bytes << rng.uniform_u64(0, 4);
    cache.capacity_bytes = cache.block_bytes << rng.uniform_u64(0, 10);
  }
  if (rng.uniform() < 0.5) {
    config.workload.database_bytes = rng.uniform_u64(1, 64) << 20;
    config.worker_memory_bytes = rng.uniform_u64(1, 32) << 20;
    config.fragment_affinity = rng.uniform() < 0.5;
    if (rng.uniform() < 0.7) {
      config.workload.db_chunk_bytes = rng.uniform_u64(4 * KiB, MiB);
      config.read_method = kReadMethods[rng.uniform_u64(0, 2)];
      config.hints.sieve_buffer_bytes = rng.uniform_u64(16 * KiB, 8 * MiB);
      if (config.model.pfs.cache.enabled())
        config.hints.sieve_buffer_bytes =
            std::max(config.hints.sieve_buffer_bytes,
                     config.model.pfs.cache.block_bytes);
    }
  }
  if (rng.uniform() < 0.2) config.mw_nonblocking_io = true;

  // Draws appended after the ones above keep every earlier field of a seed.
  // Hybrid groups: a divisor of nprocs with at least two ranks per group
  // and no more groups than queries.
  std::vector<std::uint32_t> group_counts;
  for (std::uint32_t g = 1; 2 * g <= config.nprocs; ++g)
    if (config.nprocs % g == 0 && g <= config.workload.query_count)
      group_counts.push_back(g);
  config.groups = group_counts[rng.uniform_u64(0, group_counts.size() - 1)];
  // A crash needs one group and no client cache (both reject it).
  double crash_fraction = 0.0;
  if (config.groups == 1 && !config.model.pfs.cache.enabled())
    crash_fraction = 0.05 + rng.uniform() * 1.45;
  return {config, crash_fraction};
}

class RandomConfigTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConfigTest, TerminatesAndVerifies) {
  Sample sample = random_sample(GetParam());
  SimConfig& config = sample.config;
  if (sample.crash_fraction > 0.0)
    config.fault.crash_at = sim::seconds(run_simulation(config).wall_seconds *
                                         sample.crash_fraction);
  const auto stats = run_simulation(config);

  EXPECT_TRUE(stats.file_exact)
      << "strategy=" << strategy_name(config.strategy)
      << " procs=" << config.nprocs << " sync=" << config.query_sync
      << " flush=" << config.queries_per_flush
      << " cache=" << config.model.pfs.cache.capacity_bytes
      << " db_chunk=" << config.workload.db_chunk_bytes
      << " groups=" << config.groups << " crash=" << sample.crash_fraction;
  EXPECT_EQ(stats.overlap_count, 0u);

  std::uint64_t tasks = 0;
  for (const auto& rank : stats.ranks) {
    tasks += rank.tasks_processed;
    EXPECT_EQ(rank.phases.total(), rank.wall);
  }
  // A resumed tail recomputes only the queries after the last flushed
  // batch; every other run (no crash, a crash past the end, or one after
  // the last flush) reports all tasks.
  const std::uint32_t queries = config.workload.query_count;
  const bool tail_ran =
      stats.resume.crashed && stats.resume.resume_query < queries;
  const std::uint32_t first = tail_ran ? stats.resume.resume_query : 0;
  EXPECT_EQ(tasks, static_cast<std::uint64_t>(queries - first) *
                       config.workload.fragment_count);

  // Determinism: the same config reruns byte-identically on another
  // thread, so no thread-local host state leaks into the results.
  const std::string again =
      std::async(std::launch::async,
                 [&config] { return run_simulation(config).to_json(); })
          .get();
  EXPECT_EQ(stats.to_json(), again);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigTest,
                         ::testing::Range<std::uint64_t>(1, 65));

}  // namespace
