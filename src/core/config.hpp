#pragma once

/// \file config.hpp
/// All knobs of a simulation run.  `paper_config()` reproduces the test
/// setup of §3.3 exactly: 20 queries, 128 fragments, NT histograms,
/// 1000–2000 results per query, write-after-every-query, MPI_File_sync
/// after every write, 16 PVFS2 servers with 64 KiB strips.

#include <cstdint>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "fault/fault.hpp"
#include "mpiio/hints.hpp"
#include "net/model.hpp"
#include "pfs/pfs.hpp"
#include "sim/time.hpp"
#include "util/histogram.hpp"

namespace s3asim::core {

/// Workload description (what the searched data "looks like").
struct WorkloadConfig {
  std::uint64_t seed = 20060627;  // HPDC'06 presentation date
  std::uint32_t query_count = 20;
  std::uint32_t fragment_count = 128;
  util::BoxHistogram query_histogram = util::nt_query_histogram();
  util::BoxHistogram database_histogram = util::nt_database_histogram();
  /// Results per query over the whole database, uniform in [min, max].
  std::uint32_t result_count_min = 1000;
  std::uint32_t result_count_max = 2000;
  /// Lower bound on one result's formatted size.
  std::uint64_t min_result_bytes = 512;
  /// On-disk size of the (formatted) sequence database.  0 disables
  /// database-I/O modeling (the paper's S3aSim starts after the database is
  /// distributed).  When set, a worker assigned a fragment it has not
  /// cached must first stream `database_bytes / fragment_count` from the
  /// file system — §1's "repeated I/O introduced by loading sequence data
  /// back and forth between the file system and the main memory".
  std::uint64_t database_bytes = 0;
  /// Database interleave granularity.  0 (default) stores each fragment
  /// contiguously, so a fragment load is one contiguous read.  >0 models a
  /// formatdb-style round-robin layout: the database file is cut into
  /// chunks of this many bytes and chunk c belongs to fragment
  /// c mod fragment_count, so loading fragment f means reading the strided
  /// extent list {f, f+F, f+2F, …} — the noncontiguous read shape that
  /// `read_method` (list I/O vs data sieving) exists to serve
  /// (docs/IO_MODEL.md §3).  Config key `db_chunk_bytes`.
  std::uint64_t db_chunk_bytes = 0;
  /// Result size is uniform in [min_result_bytes, cap] where cap =
  /// size_scale × 3 × max(query_len, db_sequence_len) — the paper's model
  /// ("anywhere from the minimum input size to three times the maximum of
  /// the input query and the matching database sequence").  size_scale
  /// calibrates the aggregate output volume (~208 MB for the paper setup).
  double size_scale = 0.715;
  /// Per-query length override (arrival-trace replay: the trace's
  /// `query_size` column).  Empty (the default) samples every length from
  /// `query_histogram`; when set it must have exactly `query_count`
  /// entries and query q's length is `query_lengths[q]`.
  std::vector<std::uint64_t> query_lengths{};
};

/// One tenant of the online-serving workload: a named query stream with an
/// arrival rate (Poisson mode), a fair-share weight (weighted-fair
/// admission) and a priority class (strict-priority admission; lower value
/// = more urgent).
struct TenantConfig {
  std::string name = "default";
  /// Poisson arrival rate in queries/simulated-second.  When the aggregate
  /// `arrival_rate_hz` is also set, per-tenant rates are relative shares of
  /// that aggregate; otherwise they are absolute rates.
  double rate_hz = 1.0;
  double weight = 1.0;       ///< weighted-fair share (> 0)
  std::uint32_t priority = 0;  ///< strict-priority class (0 = highest)
};

/// Admission-queue dispatch order.
enum class AdmitPolicy {
  Fifo,          ///< global arrival order
  WeightedFair,  ///< start-time fair queuing over tenant weights
  Priority,      ///< strict priority classes, FIFO within a class
};

/// Open-loop serving workload (ISSUE 6): queries arrive continuously at
/// the master instead of being a fixed batch.  Disabled by default —
/// `enabled()` false leaves every closed-batch code path untouched
/// (byte-identical results).
struct ServingConfig {
  /// Aggregate Poisson arrival rate in queries/simulated-second; 0 together
  /// with an empty `arrival_trace` means the paper's closed batch.
  double arrival_rate_hz = 0.0;
  /// Trace-replay file (CSV: `t_seconds, tenant, query_size`); overrides
  /// Poisson generation.  Loaded by `apply_arrival_trace` into
  /// `trace_arrivals` + the workload's `query_lengths`.
  std::string arrival_trace;
  /// Parsed trace rows (seconds + tenant index), one per query in time
  /// order.  Filled by `apply_arrival_trace`; empty in Poisson mode.
  std::vector<std::pair<double, std::uint32_t>> trace_arrivals;
  /// Tenant set.  Empty = a single "default" tenant (rate =
  /// `arrival_rate_hz`).
  std::vector<TenantConfig> tenants;
  AdmitPolicy policy = AdmitPolicy::Fifo;
  /// Bounded admission queue: an arrival finding this many queries already
  /// admitted-but-undispatched is shed (recorded, never run).
  std::uint32_t admit_depth = 64;
  /// Backpressure watermark: dispatch of new queries pauses while the
  /// output bytes of dispatched-but-unretired queries exceed this.  0
  /// disables backpressure.
  std::uint64_t inflight_watermark_bytes = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return arrival_rate_hz > 0.0 || !arrival_trace.empty() ||
           !trace_arrivals.empty();
  }
};

/// One named capability class of a heterogeneous worker mix
/// (`worker_classes` config key, DESIGN.md §12).  Classes repeat
/// cyclically over the worker ranks: with `standard:speed=1,count=3|
/// accel:speed=4,count=1` every fourth worker searches 4× as fast
/// (cf. SWAPHI's accelerator-class Xeon Phi workers).
struct SpeedClass {
  std::string name = "standard";
  double speed = 1.0;        ///< relative compute-speed multiplier (> 0)
  std::uint32_t count = 1;   ///< pattern slots per cycle (>= 1)
};

/// One scheduled mid-run join (`joins` config key): worker `rank` is a
/// standby until simulated time `at`, then runs the join handshake and
/// starts taking tasks — the inverse of a kill fault.
struct JoinSpec {
  std::uint32_t rank = 0;
  sim::Time at = 0;
  /// Optional speed-class override (by name); empty keeps the worker's
  /// positional class from the `worker_classes` cycle.
  std::string speed_class;
};

/// Cluster-membership configuration (ROADMAP item 5; membership.hpp has
/// the registry that interprets it).  Default-constructed = the paper's
/// fixed homogeneous cluster, byte-identical to the pre-membership tree.
struct MembershipConfig {
  /// Named speed classes, cycled over worker ranks; empty = homogeneous.
  std::vector<SpeedClass> classes;
  /// Speed-aware dispatch: prefer handing larger fragments to faster
  /// workers (only consulted when `classes` is non-empty; the `false`
  /// arm is the blind-dispatch baseline of Ablation O).
  bool speed_aware = true;
  /// Scheduled mid-run joins (closed-batch runs only).
  std::vector<JoinSpec> joins;
  /// Elastic autoscaling (serving mode only): workers beyond
  /// `min_workers` start as standbys and the AutoscalePolicy summons or
  /// drains them against the admission-queue depth.
  bool elastic = false;
  /// Initially-active worker count in elastic mode (1 … nprocs−1).
  std::uint32_t min_workers = 0;
  /// Queue depth that triggers a scale-up (`autoscale_target`, > 0).
  double autoscale_target = 4.0;
  /// Minimum time between autoscaling actions (`autoscale_cooldown_ms`).
  sim::Time autoscale_cooldown = sim::seconds(2);

  [[nodiscard]] bool heterogeneous() const noexcept {
    return !classes.empty();
  }
  /// Membership can change mid-run (either elastic mechanism).
  [[nodiscard]] bool dynamic() const noexcept {
    return elastic || !joins.empty();
  }
  [[nodiscard]] bool configured() const noexcept {
    return dynamic() || heterogeneous();
  }
};

/// Hardware / substrate cost model (see DESIGN.md §4 for calibration).
struct ModelParams {
  net::LinkParams network = net::LinkParams::myrinet2000();
  pfs::PfsParams pfs{};
  /// Compute model (paper §3): per-(query,fragment) search time =
  /// (startup + result_bytes × per_result_byte) / compute_speed.
  sim::Time compute_startup = sim::milliseconds(24);
  double compute_ns_per_result_byte = 1350.0;
  /// Worker-side merge of a query's new results into its sorted list.
  double merge_ns_per_byte = 6.0;
  /// Master-side merge of an incoming score list (per entry).
  sim::Time master_merge_per_entry = sim::microseconds(1.2);
  /// MW only: master-side handling of the full result payloads — buffer
  /// copies, merge shifting, and output formatting of every result byte.
  /// This is the centralization cost of master-writing (§2.1: "Only a
  /// single process is gathering all the results and doing the writing on
  /// behalf of all the workers"); workers in WW strategies do the same
  /// work, but spread over P−1 processes where it overlaps with compute.
  double master_result_ns_per_byte = 420.0;
  /// Message payload sizes.
  std::uint64_t bytes_per_score_entry = 16;  // score + size
  std::uint64_t bytes_per_offset_entry = 8;  // 64-bit offsets (paper §2.2)
  std::uint64_t control_message_bytes = 64;  // work requests/assignments
  std::uint64_t setup_message_bytes = 1024;  // input-variable broadcast
};

/// One full simulation configuration.
struct SimConfig {
  /// Total MPI ranks: 1 master + (nprocs − 1) workers per group.
  std::uint32_t nprocs = 16;
  /// Master/worker groups (§5's hybrid query/database segmentation): the
  /// ranks split into `groups` teams of nprocs/groups, group g runs queries
  /// g, g+groups, … and writes its own output file.  1 = the paper's plain
  /// database segmentation.  Config key `groups`, CLI `--groups`.
  std::uint32_t groups = 1;
  Strategy strategy = Strategy::WWList;
  /// The paper's "query sync" option: all processes synchronize after the
  /// results of each query are written.
  bool query_sync = false;
  /// Search speed multiplier (paper Figures 5–7 sweep 0.1 … 25.6).
  double compute_speed = 1.0;
  /// Per-worker heterogeneity: worker w's speed is compute_speed scaled by
  /// a deterministic factor uniform in [1-jitter, 1+jitter].  0 = the
  /// paper's homogeneous Europa-nodes setup; >0 models mixed hardware
  /// ("variable simulated compute speeds", §3).
  double compute_speed_jitter = 0.0;
  /// Flush results every n queries (1 = after every query, as in the paper
  /// evaluation; query_count = write-at-end, like mpiBLAST 1.2/pioBLAST).
  std::uint32_t queries_per_flush = 1;
  /// Call MPI_File_sync after every write (always on in the paper).
  bool sync_after_write = true;
  /// Per-worker memory available for caching database fragments (Feynman
  /// nodes: 1 GB RDRAM).  Only used when workload.database_bytes > 0.
  std::uint64_t worker_memory_bytes = util::GiB;
  /// Access method for noncontiguous database-fragment reads (only reached
  /// when `workload.db_chunk_bytes` > 0 makes fragment loads noncontiguous):
  /// Posix, ListIo, or Sieve with `hints.sieve_buffer_bytes` windows.
  /// Config key `read_method`, CLI `--read-method`.
  mpiio::NoncontigMethod read_method = mpiio::NoncontigMethod::ListIo;
  /// Master prefers assigning fragments a worker already holds in memory
  /// (mpiBLAST-style fragment affinity).  Only affects runs that model
  /// database I/O.
  bool fragment_affinity = true;
  /// MW only: the master issues its batch writes asynchronously and keeps
  /// serving work requests (§2.1: "While nonblocking I/O could reduce this
  /// overhead, blocking I/O is commonly used in a MW strategy").
  bool mw_nonblocking_io = false;
  /// WW-Aggr only: workers per aggregation group.  Each group's first
  /// worker acts as the aggregator that coalesces and writes the group's
  /// extents every flush.  0 (or ≥ the worker count) means one group — a
  /// single aggregator writes for everyone.
  std::uint32_t aggregator_fanin = 4;
  /// Injected faults (empty = the paper's failure-free runs).  Worker faults
  /// move the master from its closed-batch loop to its event loop, with
  /// failure detection on; server faults translate to
  /// pfs::ServerDegradation; `crash_at` makes run_simulation resume from
  /// the last flushed batch.
  fault::FaultPlan fault{};
  /// Failure detector: a worker with outstanding work and no sign of life
  /// (no score received) for this long is declared dead and its outstanding
  /// (query, fragment) tasks are reassigned.  Only consulted when the fault
  /// plan perturbs workers.
  sim::Time fault_detection_timeout = sim::seconds(10);
  /// Open-loop serving workload (disabled by default: closed batch).
  ServingConfig serving{};
  /// Cluster membership: speed classes, scheduled joins, elastic
  /// autoscaling (default = fixed homogeneous membership).
  MembershipConfig membership{};
  WorkloadConfig workload{};
  ModelParams model{};
  mpiio::Hints hints{};
};

/// The exact evaluation setup of §3.3.
[[nodiscard]] inline SimConfig paper_config() {
  SimConfig config;
  config.nprocs = 16;
  config.strategy = Strategy::WWList;
  config.query_sync = false;
  config.compute_speed = 1.0;
  return config;
}

/// A scaled-down configuration for unit/integration tests: 4 queries,
/// 8 fragments, small results — runs in milliseconds of host time.
[[nodiscard]] inline SimConfig test_config() {
  SimConfig config;
  config.nprocs = 5;
  config.workload.query_count = 4;
  config.workload.fragment_count = 8;
  config.workload.result_count_min = 40;
  config.workload.result_count_max = 80;
  config.workload.query_histogram = util::BoxHistogram{{{500, 4000, 1.0}}};
  config.workload.database_histogram = util::BoxHistogram{{{200, 8000, 1.0}}};
  config.workload.min_result_bytes = 256;
  config.model.pfs.layout = pfs::Layout(16 * util::KiB, 4);
  return config;
}

}  // namespace s3asim::core
