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
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <optional>
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

/// The metadata server's lease table: one lease list per (file, client),
/// kept canonical — sorted, disjoint, same-mode neighbours merged.  All
/// mutation is synchronous and deterministic; the caller (Pfs) models the
/// wire/service costs and the serialization of concurrent requests.
///
/// Canonical lists make every lease entry a maximal same-mode run of one
/// client's bytes, so the entries (and the `conflicts` they count) do not
/// depend on how the table is stored: a grant re-merges the grantee's new
/// lease with its two neighbours, and a revocation only cuts a gap out of
/// a victim's leases, so two of them never come to touch.
class TokenManager {
 public:
  /// One revocation owed to a victim: `client` loses [begin, end).
  struct Revocation {
    std::uint32_t client = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  /// A lease range to grant, [first, second).
  using Span = std::pair<std::uint64_t, std::uint64_t>;

  /// True when `client` already holds all of [begin, end) in `mode` (a
  /// write lease satisfies a read request, not vice versa).
  [[nodiscard]] bool covered(FileHandle file, std::uint32_t client,
                             TokenMode mode, std::uint64_t begin,
                             std::uint64_t end) const {
    if (begin >= end) return true;
    return covers(find_leases(file, client), mode, begin, end);
  }

  /// True when `client` lacks a lease that `extents` need in `mode`, by the
  /// rule of `missing_spans`, which answers this without listing spans.
  [[nodiscard]] bool needs_grant(FileHandle file, std::uint32_t client,
                                 TokenMode mode,
                                 std::span<const Extent> extents,
                                 std::uint64_t granule) const {
    return !for_each_needed(file, client, mode, extents, granule,
                            [](std::uint64_t, std::uint64_t) { return false; });
  }

  /// Replaces `spans` with the lease spans `client` lacks in `mode` to
  /// cover `extents`, ascending and merged.  Each extent is rounded out to
  /// `granule`.  A write checks the rounded span as a whole; a read checks
  /// it granule by granule and asks only for the granules it lacks, since
  /// partial holds are the common case for shared read leases.
  void missing_spans(FileHandle file, std::uint32_t client, TokenMode mode,
                     std::span<const Extent> extents, std::uint64_t granule,
                     std::vector<Span>& spans) const {
    spans.clear();
    for_each_needed(file, client, mode, extents, granule,
                    [&spans](std::uint64_t begin, std::uint64_t end) {
                      spans.emplace_back(begin, end);
                      return true;
                    });
    std::sort(spans.begin(), spans.end());
    auto merged = spans.begin();
    for (const Span& span : spans) {
      if (merged != spans.begin() && span.first <= std::prev(merged)->second)
        std::prev(merged)->second =
            std::max(std::prev(merged)->second, span.second);
      else
        *merged++ = span;
    }
    spans.erase(merged, spans.end());
  }

  /// Grants [begin, end) in `mode` to `client`, cutting the range out of
  /// every conflicting lease (and out of the client's own leases, so an
  /// upgrade replaces rather than stacks).  Returns the revocations owed,
  /// merged per victim and ordered by (client, begin) — the caller performs
  /// one revocation round trip per entry.  The list stays valid until the
  /// next `acquire`.
  [[nodiscard]] std::span<const Revocation> acquire(FileHandle file,
                                                    std::uint32_t client,
                                                    TokenMode mode,
                                                    std::uint64_t begin,
                                                    std::uint64_t end) {
    S3A_REQUIRE(begin < end);
    if (file >= files_.size()) files_.resize(file + 1);
    FileLeases& leases = files_[file];
    owed_.clear();
    for (const std::uint32_t holder : leases.holders)
      if (holder != client)
        revoke(holder, leases.by_client[holder], mode, begin, end);
    grant(own_leases(leases, client), mode, begin, end);
    ++grants_;
    revocations_ += owed_.size();
    return owed_;
  }

  /// Drops every lease `client` holds, across all files (close).
  void release_client(std::uint32_t client) {
    for (FileLeases& leases : files_)
      if (client < leases.by_client.size()) leases.by_client[client].clear();
  }

  /// The leases of one file, by client then offset (tests and diagnostics).
  [[nodiscard]] std::vector<FileToken> file_tokens(FileHandle file) const {
    std::vector<FileToken> tokens;
    if (file >= files_.size()) return tokens;
    for (const std::uint32_t holder : files_[file].holders)
      for (const Lease& lease : files_[file].by_client[holder])
        tokens.push_back(FileToken{lease.begin, lease.end, lease.mode, holder});
    return tokens;
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
  struct Lease {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    TokenMode mode = TokenMode::Read;
  };
  /// One file's leases: a canonical list per client, indexed by client,
  /// and the clients that ever held one there, ascending.  A client that
  /// released its leases keeps its (empty) list and the list's capacity.
  struct FileLeases {
    std::vector<std::vector<Lease>> by_client;
    std::vector<std::uint32_t> holders;
  };

  /// The first lease that ends after `at`.
  template <typename Leases>
  static auto first_after(Leases& leases, std::uint64_t at) {
    return std::upper_bound(
        leases.begin(), leases.end(), at,
        [](std::uint64_t x, const Lease& lease) { return x < lease.end; });
  }

  /// Whether canonical `leases` cover [begin, end) in `mode`: the lease
  /// holding `begin` and the contiguous leases after it, stopping at a read
  /// lease when `mode` is Write.
  static bool covers(std::span<const Lease> leases, TokenMode mode,
                     std::uint64_t begin, std::uint64_t end) {
    std::uint64_t cursor = begin;
    for (auto it = first_after(leases, begin);
         it != leases.end() && it->begin <= cursor && cursor < end; ++it) {
      if (mode == TokenMode::Write && it->mode != TokenMode::Write) break;
      cursor = it->end;
    }
    return cursor >= end;
  }

  [[nodiscard]] std::span<const Lease> find_leases(
      FileHandle file, std::uint32_t client) const {
    if (file >= files_.size() || client >= files_[file].by_client.size())
      return {};
    return files_[file].by_client[client];
  }

  /// `client`'s list in `leases`, made a holder first if it is not one.
  static std::vector<Lease>& own_leases(FileLeases& leases,
                                        std::uint32_t client) {
    if (client >= leases.by_client.size())
      leases.by_client.resize(client + 1);
    const auto it = std::lower_bound(leases.holders.begin(),
                                     leases.holders.end(), client);
    if (it == leases.holders.end() || *it != client)
      leases.holders.insert(it, client);
    return leases.by_client[client];
  }

  /// Calls `need(begin, end)` for each lease span `extents` need in `mode`
  /// that `client` does not hold, until it returns false.  Returns false
  /// when stopped.
  template <typename Need>
  bool for_each_needed(FileHandle file, std::uint32_t client, TokenMode mode,
                       std::span<const Extent> extents, std::uint64_t granule,
                       Need&& need) const {
    const std::span<const Lease> leases = find_leases(file, client);
    for (const Extent& extent : extents) {
      if (extent.length == 0) continue;
      // Most extents lie in one granule: round out with one division.
      const std::uint64_t first = extent.offset - extent.offset % granule;
      const std::uint64_t last =
          extent.end() <= first + granule
              ? first + granule
              : (extent.end() + granule - 1) / granule * granule;
      const std::uint64_t step =
          mode == TokenMode::Read ? granule : last - first;
      for (std::uint64_t begin = first; begin < last; begin += step)
        if (!covers(leases, mode, begin, begin + step) &&
            !need(begin, begin + step))
          return false;
    }
    return true;
  }

  /// Cuts [begin, end) out of each of `victim`'s `leases` that conflicts
  /// with a `mode` grant, owing the victim the overlap, merged with its
  /// previous revocation when they touch.
  void revoke(std::uint32_t victim, std::vector<Lease>& leases,
              TokenMode mode, std::uint64_t begin, std::uint64_t end) {
    const auto first = first_after(leases, begin);
    auto last = first;
    while (last != leases.end() && last->begin < end) ++last;
    auto out = first;
    std::optional<Lease> tail;
    for (auto it = first; it != last; ++it) {
      const Lease lease = *it;
      if (lease.mode == TokenMode::Read && mode == TokenMode::Read) {
        *out++ = lease;  // concurrent readers share the range
        continue;
      }
      ++conflicts_;
      const std::uint64_t lo = std::max(lease.begin, begin);
      const std::uint64_t hi = std::min(lease.end, end);
      if (!owed_.empty() && owed_.back().client == victim &&
          lo <= owed_.back().end) {
        owed_.back().end = std::max(owed_.back().end, hi);
      } else {
        owed_.push_back(Revocation{victim, lo, hi});
      }
      if (lease.begin < begin) *out++ = Lease{lease.begin, begin, lease.mode};
      if (lease.end > end) tail = Lease{end, lease.end, lease.mode};
    }
    if (tail && out == last) {
      leases.insert(last, *tail);  // one lease split in two
      return;
    }
    if (tail) *out++ = *tail;
    leases.erase(out, last);
  }

  /// Replaces whatever `leases` hold of [begin, end) by one `mode` lease,
  /// merged with a touching same-mode neighbour on either side.
  static void grant(std::vector<Lease>& leases, TokenMode mode,
                    std::uint64_t begin, std::uint64_t end) {
    auto first = first_after(leases, begin);
    auto last = first;
    while (last != leases.end() && last->begin < end) ++last;
    Lease granted{begin, end, mode};
    std::optional<Lease> head;
    std::optional<Lease> tail;
    if (first != last && first->begin < begin)
      head = Lease{first->begin, begin, first->mode};
    if (first != last && std::prev(last)->end > end)
      tail = Lease{end, std::prev(last)->end, std::prev(last)->mode};
    if (head && head->mode == mode) {
      granted.begin = head->begin;
      head.reset();
    } else if (!head && first != leases.begin() &&
               std::prev(first)->end == begin &&
               std::prev(first)->mode == mode) {
      granted.begin = (--first)->begin;
    }
    if (tail && tail->mode == mode) {
      granted.end = tail->end;
      tail.reset();
    } else if (!tail && last != leases.end() && last->begin == end &&
               last->mode == mode) {
      granted.end = (last++)->end;
    }
    std::array<Lease, 3> pieces;
    std::size_t count = 0;
    if (head) pieces[count++] = *head;
    pieces[count++] = granted;
    if (tail) pieces[count++] = *tail;
    const auto at = first - leases.begin();
    const auto replaced = static_cast<std::size_t>(last - first);
    const std::size_t kept = std::min(count, replaced);
    std::copy_n(pieces.begin(), kept, first);
    if (count > replaced) {
      leases.insert(leases.begin() + at + static_cast<std::ptrdiff_t>(kept),
                    pieces.begin() + static_cast<std::ptrdiff_t>(kept),
                    pieces.begin() + static_cast<std::ptrdiff_t>(count));
    } else {
      leases.erase(first + static_cast<std::ptrdiff_t>(count), last);
    }
  }

  std::vector<FileLeases> files_;  ///< by file
  std::vector<Revocation> owed_;            ///< the last `acquire`'s result
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

  /// Empties the run for reuse, keeping the list's capacity.
  void clear() noexcept {
    extents.clear();
    bytes = 0;
  }
};

/// Per-client write-back block cache.  Blocks are keyed (file, index) in a
/// deterministic map; recency lives in an LRU list of keys.  Dirty and
/// valid byte ranges are tracked per block so writebacks carry exactly the
/// dirty bytes, coalesced across contiguous blocks.  A dropped block's map
/// node, LRU node and extent lists (with their capacity) wait in spare
/// pools for the next block added, so steady-state churn allocates nothing.
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
      uncovered_.assign(1, Extent{lo, hi - lo});
      for (const Extent& valid : block.valid)
        cache_detail::subtract_range(uncovered_, valid.offset, valid.end());
      if (uncovered_.empty()) {
        ++stats_.read_hits;
      } else {
        ++stats_.read_misses;
      }
      for (const Extent& piece : uncovered_)
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
    const auto victim = blocks_.find(lru_.back());
    if (!victim->second.dirty.empty()) {
      // [first, last): the dirty blocks adjacent to the victim, which map
      // order keeps next to it.
      const auto joined = [](BlockMap::const_iterator lower,
                             BlockMap::const_iterator upper) {
        return lower->first.file == upper->first.file &&
               lower->first.index + 1 == upper->first.index &&
               !lower->second.dirty.empty() && !upper->second.dirty.empty();
      };
      auto first = victim;
      while (first != blocks_.begin() && joined(std::prev(first), first))
        --first;
      auto last = std::next(victim);
      while (last != blocks_.end() && joined(std::prev(last), last)) ++last;
      run.file = victim->first.file;
      for (auto it = first; it != last; ++it) {
        for (const Extent& extent : it->second.dirty) {
          run.bytes += extent.length;
          cache_detail::append_coalesced(run.extents, extent);
        }
        it->second.dirty.clear();
      }
      ++stats_.writebacks;
      stats_.writeback_bytes += run.bytes;
    }
    drop(victim);
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
        it = drop(it);
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
    while (!blocks_.empty()) drop(blocks_.begin());
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

  /// Calls `visit(file, index, dirty, valid)` for every resident block in
  /// (file, index) order, with its dirty and valid extents (tests).
  template <typename Visit>
  void for_each_resident(Visit&& visit) const {
    for (const auto& [key, block] : blocks_)
      visit(key.file, key.index, std::span<const Extent>(block.dirty),
            std::span<const Extent>(block.valid));
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
  using BlockMap = std::map<BlockKey, Block>;

  /// Makes `key` resident and most-recently-used, with one lookup.
  /// Returns its block and whether it was just added.  An added block
  /// takes spare storage when there is some, reset to empty.
  std::pair<Block&, bool> touch(const BlockKey& key) {
    auto it = blocks_.lower_bound(key);
    if (it != blocks_.end() && it->first == key) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return {it->second, false};
    }
    if (spare_blocks_.empty()) {
      it = blocks_.emplace_hint(it, key, Block{});
    } else {
      BlockMap::node_type node = std::move(spare_blocks_.back());
      spare_blocks_.pop_back();
      node.key() = key;
      node.mapped().dirty.clear();
      node.mapped().valid.clear();
      it = blocks_.insert(it, std::move(node));
    }
    if (spare_lru_.empty()) {
      lru_.push_front(key);
    } else {
      lru_.splice(lru_.begin(), spare_lru_, spare_lru_.begin());
      lru_.front() = key;
    }
    it->second.lru = lru_.begin();
    return {it->second, true};
  }

  /// Drops a resident block into the spare pools; returns its successor.
  BlockMap::iterator drop(BlockMap::iterator it) {
    spare_lru_.splice(spare_lru_.begin(), lru_, it->second.lru);
    const auto next = std::next(it);
    spare_blocks_.push_back(blocks_.extract(it));
    return next;
  }

  /// Calls `body(index, lo, hi)` for each block the extent touches, with
  /// [lo, hi) the extent's absolute intersection with that block.
  template <typename Body>
  void for_each_block(const Extent& extent, Body&& body) {
    if (extent.length == 0) return;
    const std::uint64_t block = params_.block_bytes;
    for (std::uint64_t index = extent.offset / block;
         index * block < extent.end(); ++index) {
      const std::uint64_t lo = std::max(extent.offset, index * block);
      const std::uint64_t hi = std::min(extent.end(), (index + 1) * block);
      body(index, lo, hi);
    }
  }

  CacheParams params_;
  CacheStats stats_;
  BlockMap blocks_;
  std::list<BlockKey> lru_;  ///< front = most recently used
  /// Storage of dropped blocks, reused by the next blocks added.
  std::vector<BlockMap::node_type> spare_blocks_;
  std::list<BlockKey> spare_lru_;
  std::vector<Extent> uncovered_;  ///< `absorb_read`'s per-block scratch
};

}  // namespace s3asim::pfs
