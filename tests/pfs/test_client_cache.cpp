/// Unit tests for the per-client write-back cache (pfs/cache.hpp
/// ClientCache): LRU eviction order, flush-behind dirty-run coalescing,
/// revocation invalidation, sync flush, close flush, and hit/miss
/// accounting; plus the per-block extent-list helpers and the whole cache
/// against per-byte references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pfs/cache.hpp"
#include "util/rng.hpp"

namespace {

using s3asim::pfs::CacheParams;
using s3asim::pfs::CacheStats;
using s3asim::pfs::ClientCache;
using s3asim::pfs::Extent;
using s3asim::pfs::FileHandle;
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

// ---- the whole cache: per-byte reference ---------------------------------

/// Per-byte ground truth of a `ClientCache`: which blocks are resident, in
/// what recency order, and each byte's dirty and valid state.  Every
/// operation is restated from its contract, byte by byte.
class CacheReference {
 public:
  static constexpr FileHandle kFiles = 2;
  static constexpr std::uint64_t kBlocks = 12;  // per file
  static constexpr std::uint64_t kBytes = kBlocks * kBlock;

  struct Key {
    FileHandle file = 0;
    std::uint64_t index = 0;
    bool operator==(const Key&) const = default;
  };

  explicit CacheReference(std::uint64_t capacity_blocks)
      : capacity_(capacity_blocks),
        dirty_(kFiles, std::vector<bool>(kBytes, false)),
        valid_(kFiles, std::vector<bool>(kBytes, false)) {}

  void absorb_write(FileHandle file, const Extent& extent) {
    for_each_block(extent, [&](std::uint64_t index) {
      ++(touch(Key{file, index}) ? stats_.write_misses : stats_.write_hits);
    });
    set(dirty_[file], extent.offset, extent.end(), true);
    set(valid_[file], extent.offset, extent.end(), true);
  }

  /// The bytes of `extent` not valid before the read, as maximal runs.
  std::vector<Extent> absorb_read(FileHandle file, const Extent& extent) {
    std::vector<bool> missing(kBytes, false);
    for (std::uint64_t b = extent.offset; b < extent.end(); ++b)
      missing[b] = !valid_[file][b];
    for_each_block(extent, [&](std::uint64_t index) {
      touch(Key{file, index});
      const std::uint64_t lo = std::max(extent.offset, index * kBlock);
      const std::uint64_t hi = std::min(extent.end(), (index + 1) * kBlock);
      bool hit = true;
      for (std::uint64_t b = lo; b < hi; ++b) hit = hit && valid_[file][b];
      ++(hit ? stats_.read_hits : stats_.read_misses);
    });
    set(valid_[file], extent.offset, extent.end(), true);
    return runs_of(missing);
  }

  /// The LRU victim's contiguous dirty block run is written back and
  /// cleaned; the victim alone leaves.
  WritebackRun evict_one() {
    const Key victim = lru_.back();
    WritebackRun run;
    if (block_dirty(victim)) {
      std::uint64_t lo = victim.index;
      while (lo > 0 && block_dirty(Key{victim.file, lo - 1})) --lo;
      std::uint64_t hi = victim.index;
      while (hi + 1 < kBlocks && block_dirty(Key{victim.file, hi + 1})) ++hi;
      run = take_dirty(victim.file, lo * kBlock, (hi + 1) * kBlock);
      ++stats_.writebacks;
      stats_.writeback_bytes += run.bytes;
    }
    drop(victim);
    ++stats_.evictions;
    return run;
  }

  WritebackRun flush_file(FileHandle file) {
    WritebackRun run = take_dirty(file, 0, kBytes);
    if (run.bytes > 0) {
      ++stats_.writebacks;
      stats_.writeback_bytes += run.bytes;
    }
    return run;
  }

  /// Dirty bytes in [begin, end) are written back; the range is no longer
  /// valid; resident blocks wholly inside it leave.
  WritebackRun invalidate(FileHandle file, std::uint64_t begin,
                          std::uint64_t end) {
    if (begin >= end) return WritebackRun{};
    WritebackRun run = take_dirty(file, begin, end);
    set(valid_[file], begin, end, false);
    for (std::uint64_t index = 0; index < kBlocks; ++index) {
      const Key key{file, index};
      if (resident(key) && begin <= index * kBlock &&
          end >= (index + 1) * kBlock) {
        drop(key);
        ++stats_.invalidations;
      }
    }
    if (run.bytes > 0) {
      ++stats_.writebacks;
      stats_.writeback_bytes += run.bytes;
    }
    return run;
  }

  /// One run per file holding dirty data, ascending; then nothing stays.
  std::vector<WritebackRun> close_all() {
    std::vector<WritebackRun> runs;
    for (FileHandle file = 0; file < kFiles; ++file) {
      for (std::uint64_t index = 0; index < kBlocks; ++index)
        if (block_dirty(Key{file, index})) ++stats_.close_writebacks;
      WritebackRun run = take_dirty(file, 0, kBytes);
      stats_.writeback_bytes += run.bytes;
      if (run.bytes > 0) runs.push_back(std::move(run));
      set(valid_[file], 0, kBytes, false);
    }
    lru_.clear();
    return runs;
  }

  [[nodiscard]] bool resident(const Key& key) const {
    return std::find(lru_.begin(), lru_.end(), key) != lru_.end();
  }
  [[nodiscard]] std::size_t resident_blocks() const { return lru_.size(); }
  [[nodiscard]] bool needs_eviction() const { return lru_.size() > capacity_; }
  [[nodiscard]] const Key& lru_victim() const { return lru_.back(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] bool dirty(FileHandle file, std::uint64_t byte) const {
    return dirty_[file][byte];
  }
  [[nodiscard]] bool valid(FileHandle file, std::uint64_t byte) const {
    return valid_[file][byte];
  }

 private:
  template <typename Body>
  static void for_each_block(const Extent& extent, Body&& body) {
    if (extent.length == 0) return;
    for (std::uint64_t index = extent.offset / kBlock;
         index <= (extent.end() - 1) / kBlock; ++index)
      body(index);
  }

  static void set(std::vector<bool>& bytes, std::uint64_t begin,
                  std::uint64_t end, bool value) {
    for (std::uint64_t b = begin; b < end; ++b) bytes[b] = value;
  }

  /// Makes `key` most recently used; true when it was not resident.
  bool touch(const Key& key) {
    const auto it = std::find(lru_.begin(), lru_.end(), key);
    const bool added = it == lru_.end();
    if (!added) lru_.erase(it);
    lru_.insert(lru_.begin(), key);
    return added;
  }

  void drop(const Key& key) {
    lru_.erase(std::find(lru_.begin(), lru_.end(), key));
    set(dirty_[key.file], key.index * kBlock, (key.index + 1) * kBlock, false);
    set(valid_[key.file], key.index * kBlock, (key.index + 1) * kBlock, false);
  }

  [[nodiscard]] bool block_dirty(const Key& key) const {
    if (key.index >= kBlocks || !resident(key)) return false;
    for (std::uint64_t b = key.index * kBlock; b < (key.index + 1) * kBlock;
         ++b)
      if (dirty_[key.file][b]) return true;
    return false;
  }

  /// The dirty bytes of [begin, end) as one run of maximal extents, then
  /// cleaned.
  WritebackRun take_dirty(FileHandle file, std::uint64_t begin,
                          std::uint64_t end) {
    std::vector<bool> taken(kBytes, false);
    WritebackRun run;
    run.file = file;
    for (std::uint64_t b = begin; b < end; ++b) {
      if (!dirty_[file][b]) continue;
      taken[b] = true;
      dirty_[file][b] = false;
      ++run.bytes;
    }
    run.extents = runs_of(taken);
    return run;
  }

  std::uint64_t capacity_;
  std::vector<std::vector<bool>> dirty_;  ///< [file][byte]
  std::vector<std::vector<bool>> valid_;  ///< [file][byte]
  std::vector<Key> lru_;                  ///< front = most recently used
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& actual, const CacheStats& expected) {
  EXPECT_EQ(actual.read_hits, expected.read_hits);
  EXPECT_EQ(actual.read_misses, expected.read_misses);
  EXPECT_EQ(actual.write_hits, expected.write_hits);
  EXPECT_EQ(actual.write_misses, expected.write_misses);
  EXPECT_EQ(actual.evictions, expected.evictions);
  EXPECT_EQ(actual.writebacks, expected.writebacks);
  EXPECT_EQ(actual.writeback_bytes, expected.writeback_bytes);
  EXPECT_EQ(actual.invalidations, expected.invalidations);
  EXPECT_EQ(actual.close_writebacks, expected.close_writebacks);
  EXPECT_EQ(actual.token_grants, 0u);
  EXPECT_EQ(actual.token_revocations, 0u);
  EXPECT_EQ(actual.token_conflicts, 0u);
}

void expect_same_run(const WritebackRun& actual,
                     const WritebackRun& expected) {
  EXPECT_EQ(actual.extents, expected.extents);
  EXPECT_EQ(actual.bytes, expected.bytes);
  if (!expected.extents.empty()) {
    EXPECT_EQ(actual.file, expected.file);
  }
}

/// Residency in (file, index) order, recency, and every byte's dirty and
/// valid state.
void expect_same_state(const ClientCache& cache,
                       const CacheReference& reference) {
  using Ref = CacheReference;
  ASSERT_EQ(cache.resident_blocks(), reference.resident_blocks());
  EXPECT_EQ(cache.needs_eviction(), reference.needs_eviction());
  if (reference.resident_blocks() > 0) {
    const Ref::Key victim = reference.lru_victim();
    EXPECT_EQ(cache.lru_victim(),
              (std::pair<FileHandle, std::uint64_t>{victim.file,
                                                    victim.index}));
  }
  std::vector<std::vector<bool>> dirty(Ref::kFiles,
                                       std::vector<bool>(Ref::kBytes, false));
  std::vector<std::vector<bool>> valid = dirty;
  std::vector<Ref::Key> visited;
  cache.for_each_resident([&](FileHandle file, std::uint64_t index,
                              std::span<const Extent> block_dirty,
                              std::span<const Extent> block_valid) {
    visited.push_back(Ref::Key{file, index});
    EXPECT_TRUE(reference.resident(Ref::Key{file, index}))
        << "block (" << file << ", " << index << ") is resident";
    for (const Extent& extent : block_dirty)
      for (std::uint64_t b = extent.offset; b < extent.end(); ++b)
        dirty[file][b] = true;
    for (const Extent& extent : block_valid)
      for (std::uint64_t b = extent.offset; b < extent.end(); ++b)
        valid[file][b] = true;
  });
  EXPECT_EQ(visited.size(), reference.resident_blocks());
  EXPECT_TRUE(std::is_sorted(
      visited.begin(), visited.end(),
      [](const Ref::Key& a, const Ref::Key& b) {
        return a.file != b.file ? a.file < b.file : a.index < b.index;
      }));
  for (FileHandle file = 0; file < Ref::kFiles; ++file) {
    for (std::uint64_t b = 0; b < Ref::kBytes; ++b) {
      ASSERT_EQ(dirty[file][b], reference.dirty(file, b))
          << "dirty: file " << file << " byte " << b;
      ASSERT_EQ(valid[file][b], reference.valid(file, b))
          << "valid: file " << file << " byte " << b;
    }
  }
}

TEST(ClientCachePropertyTest, MatchesPerByteReference) {
  // A capacity of a few blocks over two 12-block files: blocks are
  // evicted, invalidated and closed away, and their storage reused, all
  // the time.
  using Ref = CacheReference;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    s3asim::util::Xoshiro256 rng(seed);
    auto below = [&rng](std::uint64_t n) { return rng() % n; };
    const std::uint64_t capacity = 2 + below(3);
    ClientCache cache(params(capacity));
    CacheReference reference(capacity);
    for (int step = 0; step < 1500; ++step) {
      const FileHandle file = static_cast<FileHandle>(below(Ref::kFiles));
      const std::uint64_t offset = below(Ref::kBytes);
      const std::uint64_t length =
          std::min(below(3 * kBlock), Ref::kBytes - offset);
      const std::uint64_t op = below(20);
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step) + " op " + std::to_string(op) +
                   " file " + std::to_string(file) + " [" +
                   std::to_string(offset) + ", +" + std::to_string(length) +
                   ")");
      if (op < 7) {
        cache.absorb_write(file, Extent{offset, length});
        reference.absorb_write(file, Extent{offset, length});
      } else if (op < 12) {
        std::vector<Extent> missing;
        cache.absorb_read(file, Extent{offset, length}, missing);
        EXPECT_EQ(missing, reference.absorb_read(file, {offset, length}));
      } else if (op < 15) {
        // Block-aligned half the time, so whole blocks are dropped.
        std::uint64_t begin = offset;
        std::uint64_t end = offset + length;
        if (below(2) == 0) {
          begin = begin / kBlock * kBlock;
          end = std::min(Ref::kBytes, (end + kBlock - 1) / kBlock * kBlock);
        }
        if (below(10) == 0) std::swap(begin, end);
        WritebackRun run;
        cache.invalidate(file, begin, end, run);
        expect_same_run(run, reference.invalidate(file, begin, end));
      } else if (op < 18) {
        // Evict one block, or drain to capacity as the PFS glue does.
        const bool drain = below(2) == 0;
        while (reference.resident_blocks() > 0 &&
               (!drain || reference.needs_eviction())) {
          WritebackRun run;
          cache.evict_one(run);
          expect_same_run(run, reference.evict_one());
          if (!drain) break;
        }
      } else if (op < 19) {
        WritebackRun run;
        cache.flush_file(file, run);
        expect_same_run(run, reference.flush_file(file));
      } else {
        std::vector<WritebackRun> runs;
        cache.close_all(runs);
        const std::vector<WritebackRun> expected = reference.close_all();
        ASSERT_EQ(runs.size(), expected.size());
        for (std::size_t i = 0; i < runs.size(); ++i)
          expect_same_run(runs[i], expected[i]);
      }
      expect_same_stats(cache.stats(), reference.stats());
      expect_same_state(cache, reference);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
