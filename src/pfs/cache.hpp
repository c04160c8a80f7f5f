#pragma once

/// \file cache.hpp
/// Client-side PFS caching with byte-range lease tokens (ISSUE 8), pure
/// logic only — no scheduler, no network.  Two pieces:
///
///  * `TokenManager` — the lease table the metadata server (server 0)
///    consults: byte-range read/write leases per (file, client) with
///    overlap detection, range subtraction and per-victim revocation lists.
///    Modeled after the `FileToken` design of distributed file servers
///    that serialize conflicting byte ranges through a metadata authority.
///  * `ClientCache` — one per client endpoint: a write-back block cache
///    (configurable capacity, block granularity, LRU eviction) that absorbs
///    write extents, coalesces them into contiguous runs, and surrenders
///    dirty data on eviction, sync, token revocation and close.
///
/// The simulation glue (round-trip costs, server requests) lives in
/// `Pfs` (pfs.hpp); everything here is deterministic data-structure work,
/// unit-tested against brute-force per-byte references.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "pfs/layout.hpp"
#include "util/require.hpp"
#include "util/units.hpp"

namespace s3asim::pfs {

/// File handles are dense indices handed out by `Pfs::create_file`.
using FileHandle = std::uint32_t;

/// Knobs of the client-side cache layer.  Disabled by default
/// (`capacity_bytes == 0`): every client path ships extents straight to the
/// servers.
struct CacheParams {
  /// Per-client cache capacity; 0 disables the whole layer.
  std::uint64_t capacity_bytes = 0;
  /// Cache block (page) size.  Must divide the layout strip size so a
  /// block never straddles servers.
  std::uint64_t block_bytes = 64 * util::KiB;
  /// Lease granularity: grants round out to multiples of this.  Must be a
  /// positive multiple of `block_bytes` (a lease boundary never splits a
  /// cache block).
  std::uint64_t token_bytes = util::MiB;

  [[nodiscard]] bool enabled() const noexcept { return capacity_bytes > 0; }
  [[nodiscard]] std::uint64_t capacity_blocks() const noexcept {
    return block_bytes == 0 ? 0 : capacity_bytes / block_bytes;
  }
};

/// Cache/token activity counters, aggregated `ServerStats`-style: one per
/// `ClientCache` plus the token counters, summed by `Pfs::cache_stats()`
/// and published as `pfs.cache.*` (docs/OBSERVABILITY.md).
struct CacheStats {
  std::uint64_t read_hits = 0;      ///< blocks served entirely from cache
  std::uint64_t read_misses = 0;    ///< blocks (partially) fetched
  std::uint64_t write_hits = 0;     ///< absorbed into an already-cached block
  std::uint64_t write_misses = 0;   ///< absorbed into a freshly-added block
  std::uint64_t evictions = 0;      ///< blocks dropped by LRU pressure
  std::uint64_t writebacks = 0;  ///< dirty runs written back (evict/sync)
  std::uint64_t writeback_bytes = 0;  ///< total bytes written back
  std::uint64_t invalidations = 0;  ///< blocks dropped by lease revocation
  std::uint64_t close_writebacks = 0;  ///< dirty blocks flushed at close
  std::uint64_t token_grants = 0;       ///< lease-acquisition round trips
  std::uint64_t token_revocations = 0;  ///< per-victim revocation round trips
  std::uint64_t token_conflicts = 0;    ///< conflicting leases encountered

  /// Field-wise accumulation — a counter added here is automatically part
  /// of the aggregate.
  CacheStats& operator+=(const CacheStats& other) noexcept {
    read_hits += other.read_hits;
    read_misses += other.read_misses;
    write_hits += other.write_hits;
    write_misses += other.write_misses;
    evictions += other.evictions;
    writebacks += other.writebacks;
    writeback_bytes += other.writeback_bytes;
    invalidations += other.invalidations;
    close_writebacks += other.close_writebacks;
    token_grants += other.token_grants;
    token_revocations += other.token_revocations;
    token_conflicts += other.token_conflicts;
    return *this;
  }
};

enum class TokenMode : std::uint8_t { Read, Write };

/// One byte-range lease: `client` holds [begin, end) in `mode`.  Write
/// leases are exclusive; read leases may overlap across clients.
struct FileToken {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  TokenMode mode = TokenMode::Read;
  std::uint32_t client = 0;

  [[nodiscard]] bool overlaps(std::uint64_t other_begin,
                              std::uint64_t other_end) const noexcept {
    return begin < other_end && other_begin < end;
  }
};

namespace cache_detail {

/// Inserts [begin, end) into a sorted, disjoint extent list, merging
/// overlap and adjacency, in place.
inline void add_range(std::vector<Extent>& set, std::uint64_t begin,
                      std::uint64_t end) {
  if (begin >= end) return;
  // [first, last): the extents that overlap or touch [begin, end).
  const auto first = std::lower_bound(
      set.begin(), set.end(), begin,
      [](const Extent& e, std::uint64_t at) { return e.end() < at; });
  auto last = first;
  while (last != set.end() && last->offset <= end) ++last;
  if (first == last) {
    set.insert(first, Extent{begin, end - begin});
    return;
  }
  const std::uint64_t lo = std::min(begin, first->offset);
  const std::uint64_t hi = std::max(end, std::prev(last)->end());
  *first = Extent{lo, hi - lo};
  set.erase(first + 1, last);
}

/// Removes [begin, end) from a sorted, disjoint extent list, in place (may
/// split an extent in two).
inline void subtract_range(std::vector<Extent>& set, std::uint64_t begin,
                           std::uint64_t end) {
  if (begin >= end) return;
  // [first, last): the extents that overlap [begin, end).
  const auto first = std::upper_bound(
      set.begin(), set.end(), begin,
      [](std::uint64_t at, const Extent& e) { return at < e.end(); });
  auto last = first;
  while (last != set.end() && last->offset < end) ++last;
  if (first == last) return;
  const Extent head{first->offset, begin - std::min(begin, first->offset)};
  const Extent tail{end, std::max(end, std::prev(last)->end()) - end};
  if (head.length > 0 && tail.length > 0 && last - first == 1) {
    *first = tail;  // one extent split in two
    set.insert(first, head);
    return;
  }
  auto out = first;
  if (head.length > 0) *out++ = head;
  if (tail.length > 0) *out++ = tail;
  set.erase(out, last);
}

/// Appends an extent to an ascending list, fusing it with the previous one
/// when contiguous — the writeback coalescing step.
inline void append_coalesced(std::vector<Extent>& out, const Extent& extent) {
  if (extent.length == 0) return;
  if (!out.empty() && out.back().end() == extent.offset) {
    out.back().length += extent.length;
  } else {
    out.push_back(extent);
  }
}

}  // namespace cache_detail

/// The metadata server's lease table.  All mutation is synchronous and
/// deterministic; the caller (Pfs) models the wire/service costs and the
/// serialization of concurrent requests.
class TokenManager {
 public:
  /// One revocation owed to a victim: `client` loses [begin, end).
  struct Revocation {
    std::uint32_t client = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  /// True when `client` already holds all of [begin, end) in `mode` (a
  /// write lease satisfies a read request, not vice versa).
  [[nodiscard]] bool covered(FileHandle file, std::uint32_t client,
                             TokenMode mode, std::uint64_t begin,
                             std::uint64_t end) const {
    if (begin >= end) return true;
    if (file >= files_.size()) return false;
    std::uint64_t cursor = begin;
    bool progress = true;
    while (cursor < end && progress) {
      progress = false;
      for (const FileToken& token : files_[file]) {
        if (token.client != client) continue;
        if (mode == TokenMode::Write && token.mode != TokenMode::Write)
          continue;
        if (token.begin <= cursor && cursor < token.end) {
          cursor = token.end;
          progress = true;
          break;
        }
      }
    }
    return cursor >= end;
  }

  /// Grants [begin, end) in `mode` to `client`, subtracting the range from
  /// every conflicting lease (and from the client's own leases, so an
  /// upgrade replaces rather than stacks).  Returns the revocations owed,
  /// merged per victim and ordered by (client, begin) — the caller performs
  /// one revocation round trip per entry.
  [[nodiscard]] std::vector<Revocation> acquire(FileHandle file,
                                                std::uint32_t client,
                                                TokenMode mode,
                                                std::uint64_t begin,
                                                std::uint64_t end) {
    S3A_REQUIRE(begin < end);
    if (file >= files_.size()) files_.resize(file + 1);
    std::vector<FileToken>& tokens = files_[file];
    std::vector<FileToken> kept;
    kept.reserve(tokens.size() + 2);
    std::vector<Revocation> owed;
    for (const FileToken& token : tokens) {
      if (!token.overlaps(begin, end)) {
        kept.push_back(token);
        continue;
      }
      if (token.client == client) {
        subtract(token, begin, end, kept);  // replaced by the grant below
        continue;
      }
      if (token.mode == TokenMode::Write || mode == TokenMode::Write) {
        ++conflicts_;
        owed.push_back(Revocation{token.client, std::max(token.begin, begin),
                                  std::min(token.end, end)});
        subtract(token, begin, end, kept);
      } else {
        kept.push_back(token);  // concurrent readers share the range
      }
    }
    kept.push_back(FileToken{begin, end, mode, client});
    tokens = std::move(kept);
    coalesce_client(tokens, client);
    ++grants_;
    std::sort(owed.begin(), owed.end(),
              [](const Revocation& a, const Revocation& b) {
                return a.client != b.client ? a.client < b.client
                                            : a.begin < b.begin;
              });
    std::vector<Revocation> merged;
    for (const Revocation& revocation : owed) {
      if (!merged.empty() && merged.back().client == revocation.client &&
          revocation.begin <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, revocation.end);
      } else {
        merged.push_back(revocation);
      }
    }
    revocations_ += merged.size();
    return merged;
  }

  /// Drops every lease `client` holds, across all files (close).
  void release_client(std::uint32_t client) {
    for (std::vector<FileToken>& tokens : files_)
      std::erase_if(tokens, [client](const FileToken& token) {
        return token.client == client;
      });
  }

  /// The lease list of one file (tests and diagnostics).
  [[nodiscard]] std::span<const FileToken> file_tokens(FileHandle file) const {
    if (file >= files_.size()) return {};
    return files_[file];
  }

  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }
  [[nodiscard]] std::uint64_t revocations() const noexcept {
    return revocations_;
  }
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }

  /// Folds the token counters into a `CacheStats` aggregate.
  void add_counters(CacheStats& stats) const noexcept {
    stats.token_grants += grants_;
    stats.token_revocations += revocations_;
    stats.token_conflicts += conflicts_;
  }

 private:
  /// Appends `token` minus [begin, end) — up to two remainder leases.
  static void subtract(const FileToken& token, std::uint64_t begin,
                       std::uint64_t end, std::vector<FileToken>& out) {
    if (token.begin < begin)
      out.push_back(FileToken{token.begin, begin, token.mode, token.client});
    if (token.end > end)
      out.push_back(FileToken{end, token.end, token.mode, token.client});
  }

  /// Re-normalizes one client's leases: sorted, disjoint, same-mode
  /// adjacency merged.  Other clients' leases keep their order.
  static void coalesce_client(std::vector<FileToken>& tokens,
                              std::uint32_t client) {
    std::vector<FileToken> own;
    std::vector<FileToken> others;
    for (const FileToken& token : tokens)
      (token.client == client ? own : others).push_back(token);
    std::sort(own.begin(), own.end(),
              [](const FileToken& a, const FileToken& b) {
                return a.begin < b.begin;
              });
    std::vector<FileToken> merged;
    merged.reserve(own.size());
    for (const FileToken& token : own) {
      if (!merged.empty() && merged.back().mode == token.mode &&
          token.begin <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, token.end);
      } else {
        merged.push_back(token);
      }
    }
    others.insert(others.end(), merged.begin(), merged.end());
    tokens = std::move(others);
  }

  std::vector<std::vector<FileToken>> files_;  ///< lease table per file
  std::uint64_t grants_ = 0;
  std::uint64_t revocations_ = 0;
  std::uint64_t conflicts_ = 0;
};

/// One flush's worth of dirty data: ascending, coalesced extents of a
/// single file, ready for a list write.
struct WritebackRun {
  FileHandle file = 0;
  std::vector<Extent> extents;
  std::uint64_t bytes = 0;
};

/// Per-client write-back block cache.  Blocks are keyed (file, index) in a
/// deterministic map; recency lives in an intrusive LRU list.  Dirty and
/// valid byte ranges are tracked per block so writebacks carry exactly the
/// dirty bytes, coalesced across contiguous blocks.
class ClientCache {
 public:
  explicit ClientCache(const CacheParams& params) : params_(params) {
    S3A_REQUIRE(params.enabled());
    S3A_REQUIRE(params.block_bytes > 0);
    S3A_REQUIRE(params.capacity_blocks() >= 1);
  }

  /// Absorbs one written extent: every touched block becomes resident and
  /// dirty.  Counts a write hit per already-resident block, a miss per
  /// block added.  Call `needs_eviction`/`evict_one` afterwards.
  void absorb_write(FileHandle file, const Extent& extent) {
    for_each_block(extent, [&](std::uint64_t index, std::uint64_t lo,
                               std::uint64_t hi) {
      const auto [block, added] = touch(BlockKey{file, index});
      ++(added ? stats_.write_misses : stats_.write_hits);
      cache_detail::add_range(block.dirty, lo, hi);
      cache_detail::add_range(block.valid, lo, hi);
    });
  }

  /// Splits a read extent into cached and missing pieces.  Missing pieces
  /// are appended to `missing` (ascending, coalesced) and inserted as clean
  /// resident data — the caller models the fetch.  Counts a read hit per
  /// block served entirely from cache, a miss otherwise.
  void absorb_read(FileHandle file, const Extent& extent,
                   std::vector<Extent>& missing) {
    for_each_block(extent, [&](std::uint64_t index, std::uint64_t lo,
                               std::uint64_t hi) {
      Block& block = touch(BlockKey{file, index}).first;
      std::vector<Extent> uncovered{Extent{lo, hi - lo}};
      for (const Extent& valid : block.valid)
        cache_detail::subtract_range(uncovered, valid.offset, valid.end());
      if (uncovered.empty()) {
        ++stats_.read_hits;
      } else {
        ++stats_.read_misses;
      }
      for (const Extent& piece : uncovered)
        cache_detail::append_coalesced(missing, piece);
      cache_detail::add_range(block.valid, lo, hi);
    });
  }

  [[nodiscard]] bool needs_eviction() const noexcept {
    return blocks_.size() > params_.capacity_blocks();
  }

  /// Evicts the least-recently-used block.  If it is dirty, its whole
  /// contiguous dirty block run (same file, adjacent indices) is flushed
  /// into `run` — flush-behind: the neighbours stay resident, now clean, so
  /// their later eviction is free and the writeback is one large request
  /// instead of many block-sized ones.
  void evict_one(WritebackRun& run) {
    S3A_REQUIRE(!lru_.empty());
    const BlockKey victim = lru_.back();
    const auto victim_it = blocks_.find(victim);
    if (!victim_it->second.dirty.empty()) {
      std::uint64_t lo = victim.index;
      while (lo > 0) {
        const auto it = blocks_.find(BlockKey{victim.file, lo - 1});
        if (it == blocks_.end() || it->second.dirty.empty()) break;
        --lo;
      }
      std::uint64_t hi = victim.index;
      while (true) {
        const auto it = blocks_.find(BlockKey{victim.file, hi + 1});
        if (it == blocks_.end() || it->second.dirty.empty()) break;
        ++hi;
      }
      run.file = victim.file;
      for (std::uint64_t index = lo; index <= hi; ++index) {
        Block& block = blocks_.at(BlockKey{victim.file, index});
        for (const Extent& extent : block.dirty) {
          run.bytes += extent.length;
          cache_detail::append_coalesced(run.extents, extent);
        }
        block.dirty.clear();
      }
      ++stats_.writebacks;
      stats_.writeback_bytes += run.bytes;
    }
    lru_.pop_back();
    blocks_.erase(victim_it);
    ++stats_.evictions;
  }

  /// sync: collects and cleans every dirty extent of `file`; the blocks
  /// stay resident.
  void flush_file(FileHandle file, WritebackRun& run) {
    run.file = file;
    for (auto it = blocks_.lower_bound(BlockKey{file, 0});
         it != blocks_.end() && it->first.file == file; ++it) {
      for (const Extent& extent : it->second.dirty) {
        run.bytes += extent.length;
        cache_detail::append_coalesced(run.extents, extent);
      }
      it->second.dirty.clear();
    }
    if (run.bytes > 0) {
      ++stats_.writebacks;
      stats_.writeback_bytes += run.bytes;
    }
  }

  /// Lease revocation: dirty data inside [begin, end) of `file` goes into
  /// `run` for writeback; blocks entirely inside the range are dropped
  /// (invalidated), partially-covered blocks lose the range only.
  void invalidate(FileHandle file, std::uint64_t begin, std::uint64_t end,
                  WritebackRun& run) {
    if (begin >= end) return;
    run.file = file;
    const std::uint64_t block = params_.block_bytes;
    auto it = blocks_.lower_bound(BlockKey{file, begin / block});
    while (it != blocks_.end() && it->first.file == file &&
           it->first.index * block < end) {
      Block& resident = it->second;
      for (const Extent& extent : resident.dirty) {
        const std::uint64_t lo = std::max(extent.offset, begin);
        const std::uint64_t hi = std::min(extent.end(), end);
        if (lo < hi) {
          run.bytes += hi - lo;
          cache_detail::append_coalesced(run.extents, Extent{lo, hi - lo});
        }
      }
      cache_detail::subtract_range(resident.dirty, begin, end);
      cache_detail::subtract_range(resident.valid, begin, end);
      const std::uint64_t block_begin = it->first.index * block;
      if (begin <= block_begin && end >= block_begin + block) {
        lru_.erase(resident.lru);
        it = blocks_.erase(it);
        ++stats_.invalidations;
      } else {
        ++it;
      }
    }
    if (run.bytes > 0) {
      ++stats_.writebacks;
      stats_.writeback_bytes += run.bytes;
    }
  }

  /// close: flushes every dirty block (one run per file, ascending) and
  /// drops all residency.  Counts `close_writebacks` per dirty block.
  void close_all(std::vector<WritebackRun>& runs) {
    WritebackRun* current = nullptr;
    for (auto& [key, block] : blocks_) {
      if (block.dirty.empty()) continue;
      if (current == nullptr || current->file != key.file) {
        runs.push_back(WritebackRun{key.file, {}, 0});
        current = &runs.back();
      }
      for (const Extent& extent : block.dirty) {
        current->bytes += extent.length;
        cache_detail::append_coalesced(current->extents, extent);
      }
      ++stats_.close_writebacks;
    }
    for (const WritebackRun& run : runs) stats_.writeback_bytes += run.bytes;
    blocks_.clear();
    lru_.clear();
  }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t resident_blocks() const noexcept {
    return blocks_.size();
  }

  /// The least-recently-used block's (file, index), for tests.
  [[nodiscard]] std::pair<FileHandle, std::uint64_t> lru_victim() const {
    S3A_REQUIRE(!lru_.empty());
    return {lru_.back().file, lru_.back().index};
  }

 private:
  struct BlockKey {
    FileHandle file = 0;
    std::uint64_t index = 0;
    auto operator<=>(const BlockKey&) const = default;
  };
  struct Block {
    std::list<BlockKey>::iterator lru;
    std::vector<Extent> dirty;  ///< absolute file extents, sorted, disjoint
    std::vector<Extent> valid;  ///< superset of dirty (reads add clean data)
  };

  /// Makes `key` resident and most-recently-used, with one lookup.
  /// Returns its block and whether it was just added.
  std::pair<Block&, bool> touch(const BlockKey& key) {
    const auto [it, added] = blocks_.try_emplace(key);
    if (added) {
      lru_.push_front(key);
      it->second.lru = lru_.begin();
    } else {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
    }
    return {it->second, added};
  }

  /// Calls `body(index, lo, hi)` for each block the extent touches, with
  /// [lo, hi) the extent's absolute intersection with that block.
  template <typename Body>
  void for_each_block(const Extent& extent, Body&& body) {
    if (extent.length == 0) return;
    const std::uint64_t block = params_.block_bytes;
    for (std::uint64_t index = extent.offset / block;
         index <= (extent.end() - 1) / block; ++index) {
      const std::uint64_t lo = std::max(extent.offset, index * block);
      const std::uint64_t hi = std::min(extent.end(), (index + 1) * block);
      body(index, lo, hi);
    }
  }

  CacheParams params_;
  CacheStats stats_;
  std::map<BlockKey, Block> blocks_;
  std::list<BlockKey> lru_;  ///< front = most recently used
};

}  // namespace s3asim::pfs
