#pragma once

/// \file sieve.hpp
/// Data-sieving access plan for noncontiguous I/O (Thakur/Gropp/Lusk,
/// "Optimizing Noncontiguous Accesses in MPI-IO"; docs/IO_MODEL.md §4).
///
/// Instead of shipping one OL pair per extent (list I/O) or one round trip
/// per extent (POSIX), data sieving covers the extent list with large
/// *contiguous* windows of at most one sieve buffer each, reads/writes the
/// whole window, and scatters/gathers the useful bytes in memory.  The
/// trade is explicit: far fewer OL pairs and requests, paid for with
/// *amplification* — the hole bytes between extents travel too.  On the
/// write side every window containing holes must be read back first
/// (read-modify-write) so the holes are rewritten with their current
/// contents rather than garbage.
///
/// `plan_sieve` is pure and deterministic: extents in, window plan out.
/// `Pfs::read_sieved` / `write_sieved` (pfs.hpp) turn the plan into
/// simulated transfers and the counters published as `pfs.sieve.*`.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "pfs/layout.hpp"
#include "util/require.hpp"

namespace s3asim::pfs {

/// One contiguous sieve-buffer transfer.  The window always starts and
/// ends on a useful byte (leading/trailing holes are trimmed away — they
/// would be pure waste), so `useful_bytes >= 1` and
/// `useful_bytes + hole_bytes == length`.
struct SieveWindow {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;       ///< window span; <= buffer_bytes
  std::uint64_t useful_bytes = 0; ///< bytes the caller actually asked for
  std::uint64_t hole_bytes = 0;   ///< amplification: unrequested bytes moved
  std::uint64_t holes = 0;        ///< count of gaps strictly inside the window

  [[nodiscard]] std::uint64_t end() const noexcept { return offset + length; }
};

/// A full access plan: ascending, disjoint windows covering every
/// requested byte exactly once.
struct SievePlan {
  std::vector<SieveWindow> windows;
  std::uint64_t useful_bytes = 0;
  std::uint64_t transferred_bytes = 0;  ///< sum of window lengths
  std::uint64_t hole_bytes = 0;

  [[nodiscard]] std::uint64_t amplified_bytes() const noexcept {
    return transferred_bytes - useful_bytes;
  }
};

/// Normalizes an extent list: drops empty extents, sorts by offset (unless
/// already ascending), and merges overlap/adjacency.  Exposed for tests (the property test checks
/// the plan against a per-byte reference built from the same input).
[[nodiscard]] inline std::vector<Extent> coalesce_extents(
    std::span<const Extent> extents) {
  std::vector<Extent> sorted;
  sorted.reserve(extents.size());
  for (const Extent& extent : extents)
    if (extent.length != 0) sorted.push_back(extent);
  // Fragment loads pass ascending lists: check before sorting.
  const auto by_offset = [](const Extent& a, const Extent& b) {
    return a.offset < b.offset;
  };
  if (!std::is_sorted(sorted.begin(), sorted.end(), by_offset))
    std::sort(sorted.begin(), sorted.end(), by_offset);
  std::vector<Extent> merged;
  merged.reserve(sorted.size());
  for (const Extent& extent : sorted) {
    if (!merged.empty() && extent.offset <= merged.back().end()) {
      merged.back().length =
          std::max(merged.back().end(), extent.end()) - merged.back().offset;
    } else {
      merged.push_back(extent);
    }
  }
  return merged;
}

/// Greedy window packing, the ROMIO ADIOI_GEN strategy: each window opens
/// at the first unconsumed useful byte and extends through every useful
/// run that *starts* within `buffer_bytes` of the window start, clipped to
/// the buffer.  A run longer than the buffer is split across windows.
[[nodiscard]] inline SievePlan plan_sieve(std::span<const Extent> extents,
                                          std::uint64_t buffer_bytes) {
  S3A_REQUIRE_MSG(buffer_bytes > 0, "sieve buffer must be positive");
  SievePlan plan;
  const std::vector<Extent> runs = coalesce_extents(extents);
  std::size_t index = 0;
  std::uint64_t cursor = 0;  // next unconsumed byte within runs[index]
  while (index < runs.size()) {
    const std::uint64_t start = std::max(runs[index].offset, cursor);
    const std::uint64_t limit = start + buffer_bytes;
    SieveWindow window;
    window.offset = start;
    std::uint64_t covered_end = start;
    while (index < runs.size() && runs[index].offset < limit &&
           std::max(runs[index].offset, covered_end) < limit) {
      const std::uint64_t run_begin = std::max(runs[index].offset, cursor);
      const std::uint64_t run_end = std::min(runs[index].end(), limit);
      if (run_begin >= run_end) break;
      if (run_begin > covered_end) {
        // Never on the first run: the window opens on a useful byte.
        ++window.holes;
        window.hole_bytes += run_begin - covered_end;
      }
      window.useful_bytes += run_end - run_begin;
      covered_end = run_end;
      if (run_end == runs[index].end()) {
        ++index;
        cursor = 0;
      } else {
        cursor = run_end;  // run split by the buffer limit
        break;
      }
    }
    window.length = covered_end - window.offset;
    plan.useful_bytes += window.useful_bytes;
    plan.transferred_bytes += window.length;
    plan.hole_bytes += window.hole_bytes;
    plan.windows.push_back(window);
  }
  return plan;
}

/// Client-side data-sieving counters, aggregated over every sieved
/// operation of a Pfs instance and published as `pfs.sieve.*` (only when
/// sieving actually ran — write-only manifests stay byte-identical).
struct SieveStats {
  std::uint64_t reads = 0;            ///< sieve-buffer window reads
  std::uint64_t writes = 0;           ///< sieve-buffer window writes
  std::uint64_t rmw_reads = 0;        ///< pre-reads protecting write holes
  std::uint64_t holes_protected = 0;  ///< hole ranges preserved via RMW
  std::uint64_t read_useful_bytes = 0;
  std::uint64_t read_transferred_bytes = 0;
  std::uint64_t write_useful_bytes = 0;
  std::uint64_t write_transferred_bytes = 0;

  [[nodiscard]] bool used() const noexcept { return reads + writes != 0; }
  [[nodiscard]] std::uint64_t read_amplified_bytes() const noexcept {
    return read_transferred_bytes - read_useful_bytes;
  }
  [[nodiscard]] std::uint64_t write_amplified_bytes() const noexcept {
    return write_transferred_bytes - write_useful_bytes;
  }

  SieveStats& operator+=(const SieveStats& other) noexcept {
    reads += other.reads;
    writes += other.writes;
    rmw_reads += other.rmw_reads;
    holes_protected += other.holes_protected;
    read_useful_bytes += other.read_useful_bytes;
    read_transferred_bytes += other.read_transferred_bytes;
    write_useful_bytes += other.write_useful_bytes;
    write_transferred_bytes += other.write_transferred_bytes;
    return *this;
  }
};

}  // namespace s3asim::pfs
