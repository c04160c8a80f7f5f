#pragma once

/// \file strategy.hpp
/// The I/O strategies compared in the paper (§2), plus the extensions its
/// conclusion proposes.  This header is the *identity* of a strategy
/// (enumerator, canonical name, parser) and the one place it is
/// classified: the constexpr predicates below are what the runtimes and
/// the validators read to sequence control flow.  The write paths live
/// behind the `IoStrategy` hooks in `core/strategies/io_strategy.hpp`,
/// built by `make_strategy` (`core/strategies/registry.hpp`).

#include <algorithm>
#include <cctype>
#include <string>

#include "util/require.hpp"

namespace s3asim::core {

enum class Strategy {
  /// Master-writing: workers ship scores *and* result data to the master,
  /// which writes each completed query region contiguously (§2.1).
  MW,
  /// Worker-writing with per-extent POSIX I/O (§2.3).
  WWPosix,
  /// Worker-writing with PVFS2-native list I/O (§2.3).
  WWList,
  /// Worker-writing with collective two-phase I/O, à la pioBLAST (§2.2).
  WWColl,
  /// Extension (paper §5): collective implemented as list I/O bracketed by
  /// synchronization, instead of ROMIO's two-phase.
  WWCollList,
  /// Extension ("new I/O algorithms", §5): file-per-process (N-N) — each
  /// worker appends its results contiguously to a private file as soon as
  /// they are computed (no offset lists, no waiting); the master assembles
  /// the final sorted file at the end by reading every private file back
  /// and list-writing it into place.
  WWFilePerProcess,
  /// Extension ("new I/O algorithms", §5): worker-side aggregation — a
  /// data-sieving/two-phase hybrid in the spirit of Thakur et al.'s
  /// noncontiguous-access work.  Workers are partitioned into groups of
  /// `aggregator_fanin`; at each flush the members ship their extents and
  /// result data to the group's aggregator, which coalesces adjacent
  /// extents and issues one sorted list write on everyone's behalf.
  WWAggr,
  /// Extension (docs/IO_MODEL.md §4): independent worker writes through
  /// ROMIO data sieving — each flush is converted into contiguous
  /// sieve-buffer windows; windows containing holes are pre-read so the
  /// gaps are written back unchanged (read-modify-write hole protection).
  WWSieve,
};

/// Every enumerator, in declaration order (tests and sweeps iterate this
/// instead of hand-maintaining lists).
inline constexpr Strategy kAllStrategies[] = {
    Strategy::MW,         Strategy::WWPosix,          Strategy::WWList,
    Strategy::WWColl,     Strategy::WWCollList,       Strategy::WWFilePerProcess,
    Strategy::WWAggr,     Strategy::WWSieve,
};

[[nodiscard]] constexpr const char* strategy_name(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::MW: return "MW";
    case Strategy::WWPosix: return "WW-POSIX";
    case Strategy::WWList: return "WW-List";
    case Strategy::WWColl: return "WW-Coll";
    case Strategy::WWCollList: return "WW-CollList";
    case Strategy::WWFilePerProcess: return "WW-FilePerProc";
    case Strategy::WWAggr: return "WW-Aggr";
    case Strategy::WWSieve: return "WW-Sieve";
  }
  return "?";
}

/// True for every strategy where workers write their own results.
[[nodiscard]] constexpr bool worker_writes(Strategy strategy) noexcept {
  return strategy != Strategy::MW;
}

/// True when the write path is a collective operation (all workers
/// participate in every I/O round).
[[nodiscard]] constexpr bool is_collective(Strategy strategy) noexcept {
  return strategy == Strategy::WWColl || strategy == Strategy::WWCollList;
}

/// True when the workers flush in lockstep over a fixed cohort: collective
/// write rounds, and WW-Aggr's aggregation groups.  Every worker then
/// receives every per-query offsets message and flushes every batch; the
/// flush blocks the worker process, so an assignment past the pending
/// flush waits for it (§2.3) and the master's failure detector reads
/// flush-blocked silence as healthy; and a worker joining or leaving
/// mid-run would deadlock a round, so membership changes are rejected.
[[nodiscard]] constexpr bool lockstep_flush(Strategy strategy) noexcept {
  return is_collective(strategy) || strategy == Strategy::WWAggr;
}

/// True when per-query messages carry no extents to place (MW, N-N): the
/// worker treats them as batch-boundary notifications and never flushes.
[[nodiscard]] constexpr bool offsets_are_notifications(
    Strategy strategy) noexcept {
  return strategy == Strategy::MW || strategy == Strategy::WWFilePerProcess;
}

/// Parses a strategy name: the canonical `strategy_name` spelling (any
/// case) or one of the short aliases.  Throws std::invalid_argument (via
/// S3A_REQUIRE) on an unknown name, listing the canonical spellings.
[[nodiscard]] inline Strategy parse_strategy(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (lower == "mw") return Strategy::MW;
  if (lower == "ww-posix" || lower == "posix") return Strategy::WWPosix;
  if (lower == "ww-list" || lower == "list") return Strategy::WWList;
  if (lower == "ww-coll" || lower == "coll") return Strategy::WWColl;
  if (lower == "ww-colllist" || lower == "colllist") return Strategy::WWCollList;
  if (lower == "ww-fileperproc" || lower == "nn" || lower == "file-per-process")
    return Strategy::WWFilePerProcess;
  if (lower == "ww-aggr" || lower == "aggr" || lower == "aggregate")
    return Strategy::WWAggr;
  if (lower == "ww-sieve" || lower == "sieve") return Strategy::WWSieve;
  S3A_REQUIRE_MSG(false,
                  "unknown strategy '" + name +
                      "' (expected one of: MW, WW-POSIX, WW-List, WW-Coll, "
                      "WW-CollList, WW-FilePerProc, WW-Aggr, WW-Sieve)");
  S3A_UNREACHABLE();
}

}  // namespace s3asim::core
