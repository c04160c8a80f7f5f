/// Simulation-level tests of the client-side cache inside Pfs: write
/// absorption, flush on sync, lease revocation round trips between two
/// clients, close-time writeback via release_client, LRU eviction under
/// pressure, and read hit/miss traffic.

#include "pfs/pfs.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace s3asim;
using pfs::CacheParams;
using pfs::Extent;
using pfs::FileHandle;
using pfs::Pfs;
using pfs::PfsParams;
using sim::Process;
using sim::Scheduler;

constexpr std::uint64_t kStrip = 1024;
constexpr std::uint64_t kCacheBlock = 256;

PfsParams cached_params(std::uint64_t capacity_blocks,
                        std::uint32_t servers = 4,
                        std::uint64_t token_bytes = kStrip) {
  PfsParams params;
  params.layout = pfs::Layout(kStrip, servers);
  params.disk = pfs::DiskModel::test_model();
  params.cache.capacity_bytes = capacity_blocks * kCacheBlock;
  params.cache.block_bytes = kCacheBlock;
  params.cache.token_bytes = token_bytes;
  return params;
}

net::LinkParams fast_net() {
  net::LinkParams params;
  params.latency = 10;
  params.bandwidth_bps = 1e12;  // effectively free wire
  params.per_message_overhead = 0;
  return params;
}

struct Fixture {
  Scheduler sched;
  net::Network network;
  Pfs fs;
  explicit Fixture(PfsParams params, std::uint32_t clients = 2)
      : network(sched, clients + params.layout.server_count(), fast_net()),
        fs(sched, network, /*server_endpoint_base=*/clients, params) {}

  ~Fixture() {
    fs.shutdown();
    sched.run();
  }

  [[nodiscard]] std::uint64_t total_server_writes() const {
    std::uint64_t bytes = 0;
    for (std::uint32_t s = 0; s < fs.layout().server_count(); ++s)
      bytes += fs.server_stats(s).bytes;
    return bytes;
  }

  [[nodiscard]] std::uint64_t total_server_requests() const {
    std::uint64_t requests = 0;
    for (std::uint32_t s = 0; s < fs.layout().server_count(); ++s)
      requests += fs.server_stats(s).requests;
    return requests;
  }
};

TEST(CachePfsTest, WritesAreAbsorbedUntilSync) {
  Fixture f(cached_params(/*capacity_blocks=*/64));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    co_await fx.fs.write_contiguous(file, 0, 0, 2048);
    // The image is exact at absorb time, before any flush...
    EXPECT_TRUE(fx.fs.image(file).covers_exactly(2048));
    EXPECT_EQ(fx.fs.image(file).write_count(), 1u);
    // ...but no data has reached a server yet.
    EXPECT_EQ(fx.total_server_writes(), 0u);
    co_await fx.fs.sync(file, 0);
    EXPECT_EQ(fx.total_server_writes(), 2048u);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  const pfs::CacheStats stats = f.fs.cache_stats();
  EXPECT_EQ(stats.write_misses, 2048 / kCacheBlock);
  EXPECT_GE(stats.token_grants, 1u);
  EXPECT_EQ(stats.token_conflicts, 0u);
  EXPECT_GE(stats.writebacks, 1u);
  EXPECT_EQ(stats.writeback_bytes, 2048u);
  // Lease traffic is metadata work on server 0, never disk `busy` time.
  EXPECT_GE(f.fs.server_stats(0).metadata_ops, 2u);  // create + grant
}

TEST(CachePfsTest, CoveredRewriteSkipsTokenTraffic) {
  Fixture f(cached_params(/*capacity_blocks=*/64));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    co_await fx.fs.write_contiguous(file, 0, 0, kStrip);
    const std::uint64_t grants = fx.fs.cache_stats().token_grants;
    // Rewriting inside the leased range needs no new lease round trip.
    co_await fx.fs.write_contiguous(file, 0, 128, 256);
    EXPECT_EQ(fx.fs.cache_stats().token_grants, grants);
    EXPECT_GE(fx.fs.cache_stats().write_hits, 1u);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
}

TEST(CachePfsTest, ConflictingWriterTriggersRevocationWriteback) {
  Fixture f(cached_params(/*capacity_blocks=*/64));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "shared");
    // Client 0 dirties [0, 512) under a write lease that spans the whole
    // first token granule [0, 1024).
    co_await fx.fs.write_contiguous(file, 0, 0, 512);
    EXPECT_EQ(fx.total_server_writes(), 0u);
    // Client 1 writes the other half of the granule: disjoint data, but
    // the lease conflicts — the metadata server revokes client 0's token,
    // which forces client 0's dirty bytes to disk.
    co_await fx.fs.write_contiguous(file, 1, 512, 512);
    const pfs::CacheStats stats = fx.fs.cache_stats();
    EXPECT_GE(stats.token_conflicts, 1u);
    EXPECT_GE(stats.token_revocations, 1u);
    EXPECT_GE(stats.invalidations, 1u);
    // The revoked dirty bytes were written back even though nobody synced.
    EXPECT_GE(fx.total_server_writes(), 512u);
    // Both writers' data is intact in the image.
    EXPECT_TRUE(fx.fs.image(file).covers_exactly(kStrip));
  };
  f.sched.spawn(prog(f));
  f.sched.run();
}

TEST(CachePfsTest, ReleaseClientFlushesDirtyBlocks) {
  Fixture f(cached_params(/*capacity_blocks=*/64));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    co_await fx.fs.write_contiguous(file, 0, 0, kStrip);
    EXPECT_EQ(fx.total_server_writes(), 0u);
    co_await fx.fs.release_client(0);
    EXPECT_EQ(fx.total_server_writes(), kStrip);
    const pfs::CacheStats stats = fx.fs.cache_stats();
    EXPECT_EQ(stats.close_writebacks, kStrip / kCacheBlock);
    // All leases are gone: the next write needs a fresh grant.
    EXPECT_FALSE(fx.fs.token_manager().file_tokens(file).size() > 0);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
}

TEST(CachePfsTest, CapacityPressureEvictsThroughFlushBehind) {
  // Two blocks of capacity, four strips of writes: eviction must kick in
  // and every byte still lands on the servers by the end.
  Fixture f(cached_params(/*capacity_blocks=*/2));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "big");
    for (std::uint64_t strip = 0; strip < 4; ++strip)
      co_await fx.fs.write_contiguous(file, 0, strip * kStrip, kStrip);
    co_await fx.fs.release_client(0);
    EXPECT_EQ(fx.total_server_writes(), 4 * kStrip);
    EXPECT_TRUE(fx.fs.image(file).covers_exactly(4 * kStrip));
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  EXPECT_GE(f.fs.cache_stats().evictions, 1u);
  EXPECT_GE(f.fs.cache_stats().writebacks, 1u);
}

TEST(CachePfsTest, RepeatedReadHitsAvoidServerTraffic) {
  Fixture f(cached_params(/*capacity_blocks=*/64));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "db");
    co_await fx.fs.write_contiguous(file, 0, 0, 4 * kStrip);
    co_await fx.fs.sync(file, 0);
    // Client 1 reads the range twice: the first fetches, the second hits.
    co_await fx.fs.read_contiguous(file, 1, 0, 2 * kStrip);
    const std::uint64_t requests = fx.total_server_requests();
    co_await fx.fs.read_contiguous(file, 1, 0, 2 * kStrip);
    EXPECT_EQ(fx.total_server_requests(), requests);
    EXPECT_EQ(fx.fs.bytes_read(file), 4 * kStrip);
    const pfs::CacheStats stats = fx.fs.cache_stats();
    EXPECT_GE(stats.read_misses, 1u);
    EXPECT_GE(stats.read_hits, 2 * kStrip / kCacheBlock);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
}

TEST(CachePfsTest, ReadsHoldLeasesSymmetricallyWithWrites) {
  // The read path participates in the token protocol exactly like the
  // write path: the first read acquires a read lease, reads inside the
  // leased range need no further token traffic, and a competing writer
  // revokes the reader's lease (and cached blocks).
  Fixture f(cached_params(/*capacity_blocks=*/64));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "shared");
    co_await fx.fs.read_contiguous(file, 1, 0, kStrip);
    const pfs::CacheStats after_first = fx.fs.cache_stats();
    EXPECT_GE(after_first.token_grants, 1u);
    // Covered re-read: a hit, with zero additional lease round trips.
    co_await fx.fs.read_contiguous(file, 1, 0, kCacheBlock);
    EXPECT_EQ(fx.fs.cache_stats().token_grants, after_first.token_grants);
    EXPECT_GE(fx.fs.cache_stats().read_hits, 1u);
    // A writer on client 0 over the same range must revoke the read lease.
    co_await fx.fs.write_contiguous(file, 0, 0, kCacheBlock);
    EXPECT_GE(fx.fs.cache_stats().token_revocations, 1u);
    EXPECT_GE(fx.fs.cache_stats().invalidations, 1u);
    // The reader's next access re-acquires and re-fetches — no stale hit.
    const std::uint64_t grants = fx.fs.cache_stats().token_grants;
    co_await fx.fs.read_contiguous(file, 1, 0, kCacheBlock);
    EXPECT_GT(fx.fs.cache_stats().token_grants, grants);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
}

TEST(CachePfsTest, ReadLeaseSpansAreGranulePrecise) {
  // Token granularity = one cache block here, so a strided read list must
  // lease only the granules it touches — not the bounding span.
  Fixture f(cached_params(/*capacity_blocks=*/64, /*servers=*/2,
                          /*token_bytes=*/kCacheBlock));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "strided");
    const std::vector<Extent> extents{Extent{0, 64},
                                      Extent{4 * kCacheBlock, 64}};
    co_await fx.fs.read_list(file, 1, extents);
    // Client 0 writes *between* the two read granules: no read lease
    // covers that range, so no revocation round trip fires.
    co_await fx.fs.write_contiguous(file, 0, 2 * kCacheBlock, 64);
    EXPECT_EQ(fx.fs.cache_stats().token_revocations, 0u);
    // Writing over a leased granule does revoke.
    co_await fx.fs.write_contiguous(file, 0, 0, 64);
    EXPECT_GE(fx.fs.cache_stats().token_revocations, 1u);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
}

TEST(CachePfsTest, SievedAccessesDeferToCache) {
  // With the cache on, sieved reads/writes ride the cache path: the sieve
  // counters stay untouched and absorption handles coalescing instead.
  Fixture f(cached_params(/*capacity_blocks=*/64));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    const std::vector<Extent> extents{Extent{0, 64}, Extent{256, 64}};
    co_await fx.fs.write_sieved(file, 0, extents, /*buffer_bytes=*/4096);
    co_await fx.fs.read_sieved(file, 0, extents, /*buffer_bytes=*/4096);
    EXPECT_FALSE(fx.fs.sieve_stats().used());
    EXPECT_GE(fx.fs.cache_stats().write_misses, 1u);
    EXPECT_GE(fx.fs.cache_stats().read_hits, 1u);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
}

TEST(CachePfsTest, PosixPathPaysPerCallLeaseChecks) {
  Fixture f(cached_params(/*capacity_blocks=*/64, /*servers=*/2,
                          /*token_bytes=*/kCacheBlock));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "posix");
    const std::vector<Extent> extents{Extent{0, 64}, Extent{kStrip, 64},
                                      Extent{2 * kStrip, 64}};
    co_await fx.fs.write_posix(file, 0, extents);
    // Each extent acquired its lease in a separate round trip.
    EXPECT_EQ(fx.fs.cache_stats().token_grants, 3u);
    EXPECT_EQ(fx.total_server_writes(), 0u);  // data still write-back
    co_await fx.fs.sync(file, 0);
    EXPECT_EQ(fx.total_server_writes(), 3 * 64u);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
}

TEST(CachePfsTest, CacheDisabledReportsNoCacheState) {
  PfsParams params;
  params.layout = pfs::Layout(kStrip, 2);
  params.disk = pfs::DiskModel::test_model();
  Fixture f(params);
  EXPECT_FALSE(f.fs.cache_enabled());
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "plain");
    co_await fx.fs.write_contiguous(file, 0, 0, kStrip);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  const pfs::CacheStats stats = f.fs.cache_stats();
  EXPECT_EQ(stats.write_misses, 0u);
  EXPECT_EQ(stats.token_grants, 0u);
}

TEST(CachePfsTest, InvalidCacheGeometryIsRejected) {
  // A token granularity finer than the cache block (or any non-multiple)
  // would let one lease boundary split a block.
  EXPECT_THROW(
      { Fixture f(cached_params(4, 4, /*token_bytes=*/kCacheBlock / 2)); },
      std::invalid_argument);
  // A block that does not divide the strip would straddle servers.
  PfsParams bad;
  bad.layout = pfs::Layout(kStrip, 2);
  bad.disk = pfs::DiskModel::test_model();
  bad.cache.capacity_bytes = 4 * 384;
  bad.cache.block_bytes = 384;
  bad.cache.token_bytes = 384;
  EXPECT_THROW({ Fixture f(bad); }, std::invalid_argument);
}

}  // namespace
