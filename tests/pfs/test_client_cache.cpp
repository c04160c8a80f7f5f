/// Unit tests for the per-client write-back cache (pfs/cache.hpp
/// ClientCache): LRU eviction order, flush-behind dirty-run coalescing,
/// revocation invalidation, sync flush, close flush, and hit/miss
/// accounting; plus the per-block extent-list helpers against a per-byte
/// reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pfs/cache.hpp"
#include "util/rng.hpp"

namespace {

using s3asim::pfs::CacheParams;
using s3asim::pfs::ClientCache;
using s3asim::pfs::Extent;
using s3asim::pfs::WritebackRun;

constexpr std::uint64_t kBlock = 64;

CacheParams params(std::uint64_t capacity_blocks) {
  CacheParams p;
  p.capacity_bytes = capacity_blocks * kBlock;
  p.block_bytes = kBlock;
  p.token_bytes = kBlock;
  return p;
}

Extent block_extent(std::uint64_t index) {
  return Extent{index * kBlock, kBlock};
}

TEST(ClientCacheTest, EvictsLeastRecentlyUsedBlock) {
  ClientCache cache(params(2));
  cache.absorb_write(0, block_extent(0));
  cache.absorb_write(0, block_extent(5));  // not adjacent: no dirty run
  cache.absorb_write(0, block_extent(9));
  ASSERT_TRUE(cache.needs_eviction());
  WritebackRun run;
  cache.evict_one(run);
  EXPECT_EQ(cache.lru_victim(),
            (std::pair<std::uint32_t, std::uint64_t>{0, 5}));
  ASSERT_EQ(run.extents.size(), 1u);
  EXPECT_EQ(run.extents[0].offset, 0u);  // block 0 was the LRU victim
  EXPECT_EQ(run.extents[0].length, kBlock);
  EXPECT_EQ(cache.resident_blocks(), 2u);
  EXPECT_FALSE(cache.needs_eviction());
}

TEST(ClientCacheTest, WriteTouchRefreshesRecency) {
  ClientCache cache(params(2));
  cache.absorb_write(0, block_extent(0));
  cache.absorb_write(0, block_extent(5));
  cache.absorb_write(0, block_extent(0));  // block 0 becomes most recent
  cache.absorb_write(0, block_extent(9));
  WritebackRun run;
  cache.evict_one(run);
  ASSERT_EQ(run.extents.size(), 1u);
  EXPECT_EQ(run.extents[0].offset, 5 * kBlock);  // block 5 is now the LRU
}

TEST(ClientCacheTest, ReadTouchRefreshesRecency) {
  ClientCache cache(params(2));
  cache.absorb_write(0, block_extent(0));
  cache.absorb_write(0, block_extent(5));
  std::vector<Extent> missing;
  cache.absorb_read(0, block_extent(0), missing);  // touch block 0
  EXPECT_TRUE(missing.empty());
  cache.absorb_write(0, block_extent(9));
  WritebackRun run;
  cache.evict_one(run);
  ASSERT_EQ(run.extents.size(), 1u);
  EXPECT_EQ(run.extents[0].offset, 5 * kBlock);
}

TEST(ClientCacheTest, FlushBehindWritesBackContiguousDirtyRun) {
  ClientCache cache(params(4));
  // Blocks 1,2,3 dirty and contiguous; block 7 dirty and isolated.  Make
  // block 1 the LRU victim.
  cache.absorb_write(0, block_extent(1));
  cache.absorb_write(0, block_extent(2));
  cache.absorb_write(0, block_extent(3));
  cache.absorb_write(0, block_extent(7));
  cache.absorb_write(0, block_extent(2));  // refresh 2 and 3 above 1
  cache.absorb_write(0, block_extent(3));
  cache.absorb_write(0, block_extent(9));  // overflow: victim is block 1
  ASSERT_TRUE(cache.needs_eviction());
  WritebackRun run;
  cache.evict_one(run);
  // The whole 1..3 dirty run is flushed as ONE coalesced extent; only the
  // victim (block 1) leaves the cache — 2 and 3 stay resident, clean.
  ASSERT_EQ(run.extents.size(), 1u);
  EXPECT_EQ(run.extents[0].offset, 1 * kBlock);
  EXPECT_EQ(run.extents[0].length, 3 * kBlock);
  EXPECT_EQ(run.bytes, 3 * kBlock);
  EXPECT_EQ(cache.resident_blocks(), 4u);  // blocks 2, 3, 7, 9
  // Refresh block 7 so the now-clean block 2 becomes the LRU; a forced
  // eviction of a clean block must carry no writeback.
  cache.absorb_write(0, block_extent(7));
  cache.absorb_write(0, block_extent(11));
  WritebackRun clean;
  cache.evict_one(clean);
  EXPECT_TRUE(clean.extents.empty());
  EXPECT_EQ(cache.stats().writebacks, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().writeback_bytes, 3 * kBlock);
}

TEST(ClientCacheTest, SubBlockWritesCoalesceWithinAndAcrossBlocks) {
  ClientCache cache(params(8));
  cache.absorb_write(0, Extent{0, 16});
  cache.absorb_write(0, Extent{16, 16});  // adjacent: merges in-block
  cache.absorb_write(0, Extent{40, 24});  // gap at [32, 40)
  cache.absorb_write(0, Extent{64, 32});  // next block, contiguous with 40..64
  WritebackRun run;
  cache.flush_file(0, run);
  ASSERT_EQ(run.extents.size(), 2u);
  EXPECT_EQ(run.extents[0].offset, 0u);
  EXPECT_EQ(run.extents[0].length, 32u);
  EXPECT_EQ(run.extents[1].offset, 40u);
  EXPECT_EQ(run.extents[1].length, 56u);  // [40, 96) across the boundary
  EXPECT_EQ(run.bytes, 88u);
  // Everything is clean now; a second flush carries nothing.
  WritebackRun again;
  cache.flush_file(0, again);
  EXPECT_TRUE(again.extents.empty());
  EXPECT_EQ(cache.resident_blocks(), 2u);  // sync keeps residency
}

TEST(ClientCacheTest, InvalidateFlushesDirtyOverlapAndDropsCoveredBlocks) {
  ClientCache cache(params(8));
  cache.absorb_write(0, Extent{0, 3 * kBlock});  // blocks 0..2 dirty
  WritebackRun run;
  cache.invalidate(0, kBlock, 2 * kBlock, run);  // revoke exactly block 1
  ASSERT_EQ(run.extents.size(), 1u);
  EXPECT_EQ(run.extents[0].offset, kBlock);
  EXPECT_EQ(run.extents[0].length, kBlock);
  EXPECT_EQ(cache.resident_blocks(), 2u);  // block 1 dropped
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Blocks 0 and 2 are still dirty.
  WritebackRun rest;
  cache.flush_file(0, rest);
  ASSERT_EQ(rest.extents.size(), 2u);
  EXPECT_EQ(rest.extents[0].offset, 0u);
  EXPECT_EQ(rest.extents[1].offset, 2 * kBlock);
}

TEST(ClientCacheTest, InvalidateCleanRangeWritesNothing) {
  ClientCache cache(params(4));
  std::vector<Extent> missing;
  cache.absorb_read(0, block_extent(0), missing);  // clean resident block
  WritebackRun run;
  cache.invalidate(0, 0, kBlock, run);
  EXPECT_TRUE(run.extents.empty());
  EXPECT_EQ(cache.resident_blocks(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(ClientCacheTest, CloseFlushesEverythingPerFile) {
  ClientCache cache(params(8));
  cache.absorb_write(0, block_extent(0));
  cache.absorb_write(0, block_extent(1));
  cache.absorb_write(2, block_extent(4));
  std::vector<WritebackRun> runs;
  cache.close_all(runs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].file, 0u);
  ASSERT_EQ(runs[0].extents.size(), 1u);  // blocks 0+1 coalesced
  EXPECT_EQ(runs[0].extents[0].length, 2 * kBlock);
  EXPECT_EQ(runs[1].file, 2u);
  EXPECT_EQ(runs[1].extents[0].offset, 4 * kBlock);
  EXPECT_EQ(cache.resident_blocks(), 0u);
  EXPECT_EQ(cache.stats().close_writebacks, 3u);  // three dirty blocks
  EXPECT_EQ(cache.stats().evictions, 0u);  // close is not an eviction
}

TEST(ClientCacheTest, HitAndMissAccounting) {
  ClientCache cache(params(8));
  cache.absorb_write(0, Extent{0, 2 * kBlock});  // two block misses
  EXPECT_EQ(cache.stats().write_misses, 2u);
  cache.absorb_write(0, Extent{16, 16});  // within block 0: hit
  EXPECT_EQ(cache.stats().write_hits, 1u);
  std::vector<Extent> missing;
  cache.absorb_read(0, Extent{0, kBlock}, missing);  // fully valid: hit
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(cache.stats().read_hits, 1u);
  cache.absorb_read(0, Extent{4 * kBlock, kBlock}, missing);  // cold: miss
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].offset, 4 * kBlock);
  EXPECT_EQ(cache.stats().read_misses, 1u);
  // The fetched range is now resident and clean: re-read hits.
  missing.clear();
  cache.absorb_read(0, Extent{4 * kBlock, kBlock}, missing);
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(cache.stats().read_hits, 2u);
}

TEST(ClientCacheTest, PartialReadReturnsOnlyMissingPieces) {
  ClientCache cache(params(8));
  cache.absorb_write(0, Extent{16, 16});  // [16, 32) valid in block 0
  std::vector<Extent> missing;
  cache.absorb_read(0, Extent{0, kBlock}, missing);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].offset, 0u);
  EXPECT_EQ(missing[0].length, 16u);
  EXPECT_EQ(missing[1].offset, 32u);
  EXPECT_EQ(missing[1].length, 32u);
  EXPECT_EQ(cache.stats().read_misses, 1u);  // block partially missing
}

// ---- extent-list helpers: per-byte reference ------------------------------

/// The maximal runs of set bytes, ascending: the only sorted, disjoint,
/// non-adjacent extent list that holds exactly those bytes.
std::vector<Extent> runs_of(const std::vector<bool>& bytes) {
  std::vector<Extent> runs;
  for (std::uint64_t b = 0; b < bytes.size(); ++b) {
    if (!bytes[b]) continue;
    if (!runs.empty() && runs.back().end() == b) {
      ++runs.back().length;
    } else {
      runs.push_back(Extent{b, 1});
    }
  }
  return runs;
}

TEST(CacheRangeTest, AddAndSubtractMatchAPerByteReference) {
  // Random ranges, and ranges aimed at an existing extent: touching its
  // edge from outside (adjacent), strictly inside it (splitting), or
  // covering it and its neighbours.  Empty and reversed ranges are no-ops.
  namespace detail = s3asim::pfs::cache_detail;
  constexpr std::uint64_t kSpan = 256;
  s3asim::util::Xoshiro256 rng(2024);
  auto below = [&rng](std::uint64_t n) { return n == 0 ? 0 : rng() % n; };
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Extent> set;
    std::vector<bool> bytes(kSpan, false);
    for (int op = 0; op < 64; ++op) {
      std::uint64_t begin = below(kSpan);
      std::uint64_t end = begin + below(48);
      if (!set.empty()) {
        const Extent& target = set[below(set.size())];
        switch (rng() % 5) {
          case 0:  // adjacent on the left
            end = target.offset;
            begin = end - std::min(end, 1 + below(16));
            break;
          case 1:  // adjacent on the right
            begin = target.end();
            end = begin + 1 + below(16);
            break;
          case 2:  // strictly inside: splits on subtract
            if (target.length >= 3) {
              begin = target.offset + 1 + below(target.length - 2);
              end = begin + 1 + below(target.end() - 1 - begin);
            }
            break;
          case 3:  // covers the extent and reaches past it
            begin = target.offset - std::min(target.offset, below(24));
            end = target.end() + below(24);
            break;
          default:  // random, sometimes empty or reversed
            if (rng() % 8 == 0) std::swap(begin, end);
        }
      }
      end = std::min(end, kSpan);
      const bool add = rng() % 2 == 0;
      SCOPED_TRACE("trial " + std::to_string(trial) + " op " +
                   std::to_string(op) + (add ? " add [" : " subtract [") +
                   std::to_string(begin) + ", " + std::to_string(end) + ")");
      if (add) {
        detail::add_range(set, begin, end);
      } else {
        detail::subtract_range(set, begin, end);
      }
      for (std::uint64_t b = begin; b < end; ++b) bytes[b] = add;
      ASSERT_EQ(set, runs_of(bytes));
    }
  }
}

}  // namespace
