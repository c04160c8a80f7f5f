#pragma once

/// \file runtime.hpp
/// The *mechanism* layer of the simulation: the shared `World`, the
/// per-group `App`, and the master/worker runtimes (Algorithms 1 and 2)
/// split across `master_runtime.cpp` / `worker_runtime.cpp`.  The runtimes
/// own scheduling, fault detection/recovery, pumps, and phase accounting;
/// everything strategy-specific is delegated to the group's `IoStrategy`
/// (see strategies/io_strategy.hpp).  Internal to core — not part of the
/// public simulation API (that is simulation.hpp).

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/membership.hpp"
#include "core/obs_bridge.hpp"
#include "core/serving.hpp"
#include "core/simulation.hpp"
#include "core/strategies/io_strategy.hpp"
#include "fault/fault.hpp"
#include "mpi/comm.hpp"
#include "mpiio/file.hpp"
#include "pfs/pfs.hpp"
#include "sim/barrier.hpp"
#include "sim/channel.hpp"
#include "sim/fifo_ring.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "sim/timer.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace s3asim::core {

/// The cost-model PFS parameters with the fault plan's server faults
/// appended as degradations (the fault module is pfs-agnostic; the
/// translation happens at world construction).
[[nodiscard]] pfs::PfsParams faulted_pfs(const SimConfig& cfg);

/// Everything shared by all groups: the cluster, the file system, the
/// deterministic workload, and the per-rank statistics.
struct World {
  explicit World(const SimConfig& cfg);

  /// Arms the observability sinks (no-op for a default-constructed
  /// `Observability`): wires the PFS/MPI observer bridge, the scheduler
  /// profiler, and the trace log's drop counter.
  void attach_observability(const Observability& observe);

  const SimConfig& config;
  /// Builds per-result layouts only when the strategy ships offset lists.
  WorkloadModel workload;
  sim::Scheduler scheduler;
  net::Network network;
  mpi::Comm comm;
  pfs::Pfs fs;
  std::vector<RankStats> rank_stats;
  trace::TraceLog* trace_log = nullptr;
  obs::Registry* metrics = nullptr;
  std::unique_ptr<ObsBridge> obs_bridge;
};

/// One master/worker group: under plain database segmentation there is a
/// single group spanning all ranks and all queries; under hybrid query/
/// database segmentation (paper §5 future work) each group owns a slice of
/// the queries, its own master, and its own output file.
struct App {
  /// `phase_trace` receives the group's phase intervals (null: untraced).
  App(World& w, mpi::Rank master_rank, std::vector<mpi::Rank> worker_ranks,
      std::vector<std::uint32_t> query_ids, trace::TraceLog* phase_trace);

  World& world;
  const SimConfig& config;
  WorkloadModel& workload;
  sim::Scheduler& scheduler;
  net::Network& network;
  mpi::Comm& comm;
  pfs::Pfs& fs;
  std::vector<RankStats>& rank_stats;
  trace::TraceLog* trace_log = nullptr;

  mpi::Rank master;
  std::vector<mpi::Rank> workers;
  /// Global query ids.  Closed batch: fixed at construction, ascending.
  /// Serving mode: starts empty and grows in dispatch order (shed queries
  /// never appear) — `region_bases` and `group_output_bytes` grow in step,
  /// so the file layout packs admitted queries back to back.
  std::vector<std::uint32_t> queries;
  sim::Barrier query_barrier;  ///< the "query sync" barrier (§3.3: workers only)
  std::vector<std::uint64_t> region_bases;  ///< group-file offset per local query
  std::uint64_t group_output_bytes = 0;

  /// The group's I/O policy and the capability bundle its hooks see; the
  /// env shares the app's `trace_log`, and its `record_phase` is the one
  /// phase-accounting entry for runtimes and strategies alike.
  std::unique_ptr<IoStrategy> strategy;
  std::unique_ptr<StrategyEnv> env;

  /// Per-worker inbound event queues fed by pump processes, in `workers`
  /// order (worker `rank`'s is at `registry->position(rank)`).
  std::vector<std::unique_ptr<sim::Channel<mpi::Message>>> events;

  /// Master-side priority split: Algorithm 1 *blocks* on work requests
  /// (step 3) and only *tests* score receives (step 10), so requests are
  /// served before queued score processing.  Pumps deposit messages here
  /// and push a wake token into the matching wake channel.
  sim::FifoRing<mpi::Message> master_requests;
  sim::FifoRing<mpi::Message> master_scores;
  std::unique_ptr<sim::Channel<int>> request_wake;
  std::unique_ptr<sim::Channel<int>> scores_wake;

  /// Open-loop serving state (ISSUE 6): non-null only when
  /// `config.serving.enabled()` — the master runs its event loop and an
  /// arrival process feeds the admission queue.  Closed-batch runs never
  /// consult it.
  std::unique_ptr<ServingContext> serving;

  // ---- Cluster membership (ISSUE 10). ------------------------------------
  /// The group's membership ledger: lifecycle, speed classes, epoch.
  /// Always present; on a fixed-membership run every worker is Active from
  /// t=0 and the registry is pure host-side bookkeeping.
  std::unique_ptr<WorkerRegistry> registry;
  /// One cancellable timer per scheduled joiner (`joins = …`): the worker
  /// waits it out, then starts the join handshake.  Cancelled at master
  /// teardown so stragglers never inflate the wall clock.
  std::map<mpi::Rank, std::unique_ptr<sim::Timer>> join_timers;
  /// One activation channel per elastic standby: the autoscaler pushes a
  /// token to summon the worker into the cluster; closed at teardown.
  std::map<mpi::Rank, std::unique_ptr<sim::Channel<int>>> activations;
  /// Elastic autoscaler (serving mode): queue-depth target + cooldown.
  std::unique_ptr<AutoscalePolicy> autoscaler;

  // ---- Fault-injection / recovery state (inert on failure-free runs). ----
  /// True when the plan perturbs workers or schedules joins: the master
  /// runs its event loop and arms per-worker failure detectors.
  bool recovery_mode = false;
  /// Per-worker failure detector: the master arms `timer` whenever the
  /// worker owes results and pushes a token into `armed`; the probe process
  /// pops the token, waits out the timer, and on expiry injects a synthetic
  /// kTagFailure message into the master's request queue.
  struct ProbeCtl {
    std::unique_ptr<sim::Timer> timer;
    std::unique_ptr<sim::Channel<int>> armed;
  };
  std::map<mpi::Rank, std::unique_ptr<ProbeCtl>> probes;
  /// One cancellable timer per planned kill (owned here so the master can
  /// disarm stragglers at teardown without inflating the wall clock).
  std::vector<std::unique_ptr<sim::Timer>> reaper_timers;
  std::set<mpi::Rank> dead;                 ///< workers that fail-stopped
  std::map<mpi::Rank, sim::Time> death_times;
  FaultStats faults;
  /// Simulated instant each flushed batch was retired by the master (MW:
  /// after the durable region write; WW: when the offset lists were
  /// dispatched — workers flush immediately after).  Feeds resume-from-flush.
  std::vector<sim::Time> batch_complete_times;

  std::unique_ptr<mpiio::File> file;
  /// The on-disk database, present when workload.database_bytes > 0.
  std::unique_ptr<mpiio::File> database_file;

  // Database-streaming model.
  [[nodiscard]] bool models_database_io() const noexcept {
    return config.workload.database_bytes > 0;
  }
  [[nodiscard]] std::uint64_t fragment_bytes() const noexcept {
    return config.workload.database_bytes / config.workload.fragment_count;
  }
  [[nodiscard]] std::size_t cache_capacity() const noexcept {
    if (!models_database_io() || fragment_bytes() == 0) return 0;
    return static_cast<std::size_t>(config.worker_memory_bytes /
                                    fragment_bytes());
  }
  /// True when `db_chunk_bytes` interleaves the database file: fragment
  /// loads become strided extent lists instead of one contiguous read.
  [[nodiscard]] bool interleaved_database() const noexcept {
    return models_database_io() && config.workload.db_chunk_bytes > 0 &&
           config.workload.db_chunk_bytes < fragment_bytes();
  }
  /// The extent list of one fragment under the interleaved layout: chunk c
  /// belongs to fragment c mod F, so fragment f owns chunks f, f+F, f+2F, …
  /// clipped to database_bytes.  Requires `interleaved_database()`.
  [[nodiscard]] std::vector<pfs::Extent> fragment_extents(
      std::uint32_t fragment) const {
    const std::uint64_t chunk = config.workload.db_chunk_bytes;
    const std::uint64_t db = config.workload.database_bytes;
    const std::uint32_t count = config.workload.fragment_count;
    std::vector<pfs::Extent> extents;
    for (std::uint64_t c = fragment; c * chunk < db; c += count)
      extents.push_back(
          {c * chunk, std::min<std::uint64_t>(chunk, db - c * chunk)});
    return extents;
  }

  // Derived mode flags.
  [[nodiscard]] bool per_query_msgs_to_all() const noexcept {
    return env->per_query_msgs_to_all;
  }
  /// True when the master runs its event loop (serving, fault recovery,
  /// scheduled joins), which wakes on `request_wake` alone; false for
  /// Algorithm 1's closed-batch loop, which also waits on `scores_wake`.
  [[nodiscard]] bool event_loop() const noexcept {
    return recovery_mode || serving != nullptr;
  }
  [[nodiscard]] std::uint32_t nworkers() const noexcept {
    return static_cast<std::uint32_t>(workers.size());
  }
  [[nodiscard]] std::uint32_t query_count() const noexcept {
    return static_cast<std::uint32_t>(queries.size());
  }
  [[nodiscard]] std::uint32_t batch_of(std::uint32_t local_query) const noexcept {
    return local_query / config.queries_per_flush;
  }
  [[nodiscard]] std::uint32_t batch_last_query(std::uint32_t batch) const noexcept {
    return std::min(query_count(), (batch + 1) * config.queries_per_flush) - 1;
  }

  /// Offset of local query q's region within the group's output file.
  [[nodiscard]] std::uint64_t region_base(std::uint32_t local_query) const {
    return region_bases[local_query];
  }

  /// Worker `rank`'s effective search speed: the global multiplier scaled
  /// by the registry's capability factor (speed class × the deterministic
  /// per-rank jitter; `1.0 × jitter` exactly when no classes are
  /// configured, so homogeneous runs are bit-identical to the
  /// pre-registry formula).
  [[nodiscard]] double worker_speed(mpi::Rank rank) const {
    return config.compute_speed * registry->speed_factor(rank);
  }

  [[nodiscard]] sim::Time compute_time(std::uint32_t query,
                                       std::uint32_t fragment,
                                       mpi::Rank rank) const;

  /// Streams `fragment` from the database file into `rank`'s memory and
  /// counts the load; the read time is the rank's Io phase.  Defined in
  /// worker_runtime.cpp.
  sim::Task<void> load_fragment(mpi::Rank rank, std::uint32_t fragment);
};

/// Scoped-ish phase timing around co_await points.
#define S3A_PHASE(app, rank, phase, ...)                          \
  do {                                                            \
    const sim::Time s3a_phase_start__ = (app).scheduler.now();    \
    __VA_ARGS__;                                                  \
    (app).env->record_phase((rank), (phase), s3a_phase_start__,   \
                            (app).scheduler.now());               \
  } while (0)

// ---- master_runtime.cpp (Algorithm 1) -------------------------------------
sim::Process master_process(App& app);
/// Receives `tag` messages (work requests; join handshakes under dynamic
/// membership) and queues them on the master's request stream.
sim::Process master_pump(App& app, mpi::Tag tag);
sim::Process master_scores_pump(App& app);
sim::Process worker_probe(App& app, mpi::Rank rank);
/// Serving mode only: fires each arrival at its simulated time, admits or
/// sheds it, and wakes the master's event loop.
sim::Process serving_arrival_process(App& app);

// ---- worker_runtime.cpp (Algorithm 2) -------------------------------------
sim::Process worker_process(App& app, mpi::Rank rank);
sim::Process worker_stream_pump(App& app, mpi::Rank rank);
sim::Process worker_reaper(App& app, mpi::Rank rank, sim::Time kill_at,
                           sim::Timer& timer);

// ---- runtime.cpp ----------------------------------------------------------
/// Spawns one group's master, workers, pumps, and (under a fault plan) the
/// per-worker reapers and failure detectors.
void launch_group(App& app);

/// Rejects fault plans that name ranks outside the worker set, and
/// strategy/fault combinations that cannot make progress.  Called before
/// the World is built — spawned server processes would outlive a throwing
/// constructor path.
void validate_fault_plan(const SimConfig& config,
                         const std::set<mpi::Rank>& valid);

// ---- obs_bridge.cpp -------------------------------------------------------
/// Collects run-wide statistics after the scheduler has drained (and, when
/// a metrics registry is attached, publishes the end-of-run aggregates).
RunStats collect_stats(World& world,
                       const std::vector<std::unique_ptr<App>>& groups);

}  // namespace s3asim::core
