#pragma once

/// \file stats.hpp
/// Per-run statistics: per-rank phase breakdowns (the stacked bars of
/// Figures 3/4/6/7), output-file verification, and file-system counters.

#include <cstdint>
#include <string>
#include <vector>

#include "core/phases.hpp"
#include "core/strategy.hpp"
#include "sim/time.hpp"

namespace s3asim::core {

struct RankStats {
  PhaseTimers phases;
  sim::Time wall = 0;
  std::uint64_t tasks_processed = 0;   ///< (query, fragment) pairs searched
  std::uint64_t bytes_written = 0;     ///< bytes this rank wrote to the file
  std::uint64_t writes_issued = 0;     ///< write calls this rank issued
  std::uint64_t fragment_loads = 0;    ///< database fragments streamed from FS
  std::uint64_t fragment_hits = 0;     ///< fragment assignments served from cache
};

struct FsStats {
  std::uint64_t server_requests = 0;
  std::uint64_t server_pairs = 0;
  std::uint64_t server_bytes = 0;
  std::uint64_t server_syncs = 0;
  double server_busy_seconds = 0.0;
};

/// Counters of the fault-injection / recovery machinery (all zero on
/// failure-free runs).
struct FaultStats {
  std::uint64_t workers_died = 0;       ///< workers killed by the fault plan
  std::uint64_t workers_retired = 0;    ///< workers the detector declared dead
  std::uint64_t tasks_reassigned = 0;   ///< (query, fragment) pairs re-run
  std::uint64_t duplicate_completions = 0;  ///< late results discarded
  std::uint64_t scores_dropped = 0;     ///< score messages lost in transit
  std::uint64_t repaired_bytes = 0;     ///< file gaps rewritten by the master
};

/// One tenant's (or the overall) serving aggregates: stream accounting and
/// the end-to-end latency distribution (arrival → durable retirement).
struct TenantServingStats {
  std::string name;
  std::uint64_t offered = 0;    ///< arrivals that fired
  std::uint64_t admitted = 0;   ///< offered − shed
  std::uint64_t shed = 0;       ///< rejected by the bounded admission queue
  std::uint64_t completed = 0;  ///< durably retired
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Open-loop serving aggregates.  `enabled` gates the JSON emission, so
/// closed-batch dumps stay byte-identical to pre-serving builds.
struct ServingStats {
  bool enabled = false;
  TenantServingStats overall;
  std::vector<TenantServingStats> tenants;
  double goodput_qps = 0.0;  ///< completed queries / simulated wall second
  std::uint64_t inflight_peak_bytes = 0;
};

/// Client-cache / token-consistency aggregates (ISSUE 8).  `enabled` gates
/// the JSON emission, so cache-off dumps stay byte-identical to pre-cache
/// builds.  Counter semantics match pfs::CacheStats; the metadata fields
/// mirror server 0's `metadata_ops`/`metadata_busy`.
struct CacheRunStats {
  bool enabled = false;
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t writeback_bytes = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t close_writebacks = 0;
  std::uint64_t token_grants = 0;
  std::uint64_t token_revocations = 0;
  std::uint64_t token_conflicts = 0;
  std::uint64_t metadata_ops = 0;
  double metadata_busy_seconds = 0.0;
};

/// One speed class's aggregate in the membership block.
struct ClassStats {
  std::string name;
  double speed = 1.0;        ///< configured relative multiplier
  std::uint32_t workers = 0;  ///< ranks assigned to this class
};

/// Cluster-membership aggregates (ISSUE 10).  `enabled` gates the JSON
/// emission: fixed-membership homogeneous runs emit no `membership` block,
/// so pre-membership dumps stay byte-identical.  Heterogeneous runs
/// (classes or jitter) and dynamic runs (joins/elastic) emit it — the
/// effective-speed fields fix obs_bridge only reporting the base
/// compute_speed.
struct MembershipStats {
  bool enabled = false;
  std::uint64_t epoch = 0;            ///< accepted transitions
  std::uint32_t participants = 0;     ///< workers that ever reached Active
  std::uint32_t peak_active = 0;
  std::uint32_t final_active = 0;
  std::uint32_t joins = 0;            ///< completed mid-run joins
  std::uint32_t drains = 0;           ///< clean elastic departures
  std::uint32_t deaths = 0;           ///< fail-stopped members
  double worker_seconds = 0.0;        ///< Σ active spans (provisioning cost)
  double join_latency_mean_seconds = 0.0;
  double join_latency_max_seconds = 0.0;
  // Effective per-worker speeds (compute_speed × speed_factor).
  double speed_min = 0.0;
  double speed_max = 0.0;
  double speed_mean = 0.0;
  std::vector<ClassStats> classes;
};

/// Data-sieving aggregates (docs/IO_MODEL.md §4).  `enabled` gates the
/// JSON emission — no sieved access in the run means no `sieve` block, so
/// pre-sieve dumps stay byte-identical.  Counter semantics match
/// pfs::SieveStats.
struct SieveRunStats {
  bool enabled = false;
  std::uint64_t reads = 0;            ///< sieve-buffer read windows issued
  std::uint64_t writes = 0;           ///< sieve-buffer write windows issued
  std::uint64_t rmw_reads = 0;        ///< write windows that pre-read (RMW)
  std::uint64_t holes_protected = 0;  ///< holes covered by RMW pre-reads
  std::uint64_t read_useful_bytes = 0;
  std::uint64_t read_transferred_bytes = 0;
  std::uint64_t write_useful_bytes = 0;
  std::uint64_t write_transferred_bytes = 0;
};

/// Resume-from-flush aggregates (the fault plan's `crash:at=T` clause).
/// `enabled` gates the JSON emission: a run with no planned crash emits no
/// `resume` block, so crash-free dumps stay byte-identical.  The enclosing
/// RunStats describe the reported run: the resumed tail when one ran, else
/// the crash-free replay.
struct ResumeStats {
  bool enabled = false;            ///< a crash was planned
  bool crashed = false;            ///< the crash landed before completion
  std::uint32_t resume_query = 0;  ///< first query recomputed after restart
  double crashed_seconds = 0.0;    ///< simulated time lost to the failed run
  double resumed_seconds = 0.0;    ///< wall time of the resumed tail run
  double total_seconds = 0.0;  ///< crashed + resumed (full wall if no crash)
};

struct RunStats {
  Strategy strategy = Strategy::MW;
  std::uint32_t nprocs = 0;
  bool query_sync = false;
  double compute_speed = 1.0;
  /// Master/worker groups (1 = plain database segmentation; >1 = hybrid
  /// query/database segmentation).
  std::uint32_t groups = 1;

  double wall_seconds = 0.0;           ///< overall execution time (the paper's y-axis)
  std::uint64_t events = 0;            ///< scheduler resumptions driving the run
  std::vector<RankStats> ranks;        ///< [0] = master, [1..] = workers

  // Output-file verification.
  std::uint64_t output_bytes = 0;      ///< expected file size
  std::uint64_t bytes_covered = 0;
  std::uint64_t overlap_count = 0;
  bool file_exact = false;             ///< covers [0, output_bytes) exactly

  /// Database streaming (only when workload.database_bytes > 0).
  std::uint64_t db_bytes_read = 0;

  FsStats fs;
  FaultStats faults;
  ServingStats serving;
  MembershipStats membership;
  CacheRunStats cache;
  SieveRunStats sieve;
  ResumeStats resume;

  /// Simulated second at which each flushed batch of queries became durable
  /// (in query order).  A crash run uses this to find the last flushed
  /// query boundary before the crash.
  std::vector<double> batch_complete_seconds;

  /// Mean over worker ranks of a phase's time, in seconds (the worker-
  /// process view the paper's breakdown figures use).
  [[nodiscard]] double worker_mean_seconds(Phase phase) const;

  /// Master's time in a phase, in seconds.
  [[nodiscard]] double master_seconds(Phase phase) const;

  /// Renders the per-phase worker breakdown as an ASCII table row set.
  [[nodiscard]] std::string phase_table() const;

  /// One-line summary for logs.
  [[nodiscard]] std::string summary() const;

  /// Full machine-readable dump (configuration echo, per-rank phase times,
  /// file-system counters, verification verdict) as a JSON document.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace s3asim::core
