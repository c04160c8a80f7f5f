#pragma once

/// \file io_strategy.hpp
/// The pluggable I/O-strategy interface (ISSUE 5 / paper §2).
///
/// A strategy is the *policy* layer of one master/worker group: how result
/// regions are routed (offset lists vs. full payloads), how and by whom the
/// output file is written, and what happens at batch boundaries and at
/// teardown.  The *mechanism* — task scheduling, fault detection and
/// recovery, phase accounting, pumps — lives in the runtimes
/// (`master_runtime.cpp` / `worker_runtime.cpp`), which call the paired
/// hooks below and read the strategy's classification from the enum
/// predicates of `core/strategy.hpp`, not from the instance.
///
/// `make_strategy` (registry.hpp) builds one instance per group: the
/// independent and collective writers are parameterized by their MPI-IO
/// method there; MW, N-N and WW-Aggr, whose behaviour is more than a
/// write-path parameter, have a translation unit each under
/// `src/core/strategies/`.  Strategies see only the narrow capability
/// handles bundled in `StrategyEnv` — the offset service, the result
/// router, the group's shared file, and the model-layer handles — never
/// the runtime's `App`/`World` internals.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/phases.hpp"
#include "core/stats.hpp"
#include "core/workload.hpp"
#include "mpi/comm.hpp"
#include "mpiio/file.hpp"
#include "net/network.hpp"
#include "pfs/pfs.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "trace/trace.hpp"

namespace s3asim::core {

/// (worker, fragment) pairs that contributed to one completed query.
using QueryContributors = std::vector<std::pair<mpi::Rank, std::uint32_t>>;

/// Offset service: the group's output-file layout.  Maps a group-local
/// query to its region and expands a worker's contributed fragments into
/// the coalesced file extents of its results (the offset lists of §2.2).
/// Only `worker_extents` reads per-result layouts; the rest reads sizes.
class OffsetService {
 public:
  OffsetService(const WorkloadModel& workload,
                const std::vector<std::uint32_t>& queries,
                const std::vector<std::uint64_t>& region_bases)
      : workload_(&workload), queries_(&queries), region_bases_(&region_bases) {}

  [[nodiscard]] std::uint32_t query_count() const noexcept {
    return static_cast<std::uint32_t>(queries_->size());
  }
  [[nodiscard]] std::uint32_t global_query(std::uint32_t local) const {
    return (*queries_)[local];
  }
  /// Offset of local query `local`'s region within the group's output file.
  [[nodiscard]] std::uint64_t region_base(std::uint32_t local) const {
    return (*region_bases_)[local];
  }
  [[nodiscard]] std::uint64_t region_length(std::uint32_t local) const {
    return workload_->summary((*queries_)[local]).total_bytes;
  }
  /// Formatted size of one (query, fragment) result block (global query id).
  [[nodiscard]] std::uint64_t result_bytes(std::uint32_t query,
                                           std::uint32_t fragment) const {
    return workload_->fragment_result_bytes(query, fragment);
  }

  /// Extents (in the group file) of local query `local`'s results produced
  /// by one worker, in file order, adjacent results coalesced.
  [[nodiscard]] std::vector<pfs::Extent> worker_extents(
      std::uint32_t local, const std::vector<std::uint32_t>& fragments) const;

 private:
  const WorkloadModel* workload_;
  const std::vector<std::uint32_t>* queries_;
  const std::vector<std::uint64_t>* region_bases_;
};

/// Result router: master→worker control-stream sends (tag
/// kTagMasterToWorker) for offset lists and per-query notifications.  The
/// wire cost model (control bytes + per-offset-entry bytes) is applied
/// here so strategies never touch the protocol structs.
class ResultRouter {
 public:
  ResultRouter(mpi::Comm& comm, const ModelParams& model, mpi::Rank master,
               const std::vector<std::uint32_t>& queries)
      : comm_(&comm), model_(&model), master_(master), queries_(&queries) {}

  /// Fire-and-forget send (`Comm::post`) of local query `local`'s offset
  /// list to `worker`; an empty list is a per-query notification (MW/N-N
  /// sync modes).
  void send_offsets(mpi::Rank worker, std::uint32_t local,
                    std::vector<pfs::Extent> extents) const;

 private:
  mpi::Comm* comm_;
  const ModelParams* model_;
  mpi::Rank master_;
  const std::vector<std::uint32_t>* queries_;
};

/// The narrow capability bundle handed to strategy hooks — one per group,
/// assembled by the runtime.  Everything a strategy may touch is here.
struct StrategyEnv {
  StrategyEnv(sim::Scheduler& sched, const SimConfig& cfg, mpi::Comm& comm_ref,
              pfs::Pfs& fs_ref, net::Network& net_ref, mpi::Rank master_rank,
              const std::vector<mpi::Rank>& worker_ranks,
              std::vector<RankStats>& stats, OffsetService offset_service,
              ResultRouter result_router)
      : scheduler(sched),
        config(cfg),
        comm(comm_ref),
        fs(fs_ref),
        network(net_ref),
        master(master_rank),
        workers(worker_ranks),
        rank_stats(stats),
        offsets(offset_service),
        router(result_router) {}

  sim::Scheduler& scheduler;
  const SimConfig& config;
  mpi::Comm& comm;
  pfs::Pfs& fs;
  net::Network& network;
  mpi::Rank master;
  const std::vector<mpi::Rank>& workers;
  std::vector<RankStats>& rank_stats;
  OffsetService offsets;
  ResultRouter router;

  /// The group's shared output file; set by the runtime during master
  /// setup, before any worker passes its setup receive.
  mpiio::File* file = nullptr;
  /// Phase-interval sink; set with the group's (null when the run is
  /// untraced — resumed tail runs stay untraced by design).
  trace::TraceLog* trace_log = nullptr;
  /// True when every worker receives a per-query offsets message
  /// (query-sync mode or a `lockstep_flush` strategy) — drives default
  /// routing.
  bool per_query_msgs_to_all = false;

  [[nodiscard]] sim::Time now() const { return scheduler.now(); }

  void record_phase(mpi::Rank rank, Phase phase, sim::Time start,
                    sim::Time end) const {
    rank_stats[rank].phases.add(phase, end - start);
    if (trace_log != nullptr && end > start)
      trace_log->record(rank, phase_name(phase), start, end);
  }

  void count_write(mpi::Rank rank, std::uint64_t bytes,
                   std::uint64_t writes = 1) const {
    rank_stats[rank].bytes_written += bytes;
    rank_stats[rank].writes_issued += writes;
  }
};

/// Paired master-side and worker-side hooks of one I/O strategy.  One
/// instance per group per run; instances may hold per-run state (private
/// files, pending-write latches, aggregation rounds).
///
/// The defaults implement the common worker-writing shape: offset lists
/// routed to contributors (to everyone in broadcast mode), no master
/// writes, no auxiliary files.  See DESIGN.md §2 for the hook-by-hook
/// walkthrough and the "adding a strategy" guide.
class IoStrategy {
 public:
  virtual ~IoStrategy() = default;

  // ---- Master-side hooks (Algorithm 1). -----------------------------------

  /// MPI-IO hints for the group's output file (the collective writer sets
  /// its algorithm: two-phase for WW-Coll, list I/O plus sync for
  /// WW-CollList).
  [[nodiscard]] virtual mpiio::Hints file_hints(const SimConfig& config) const {
    return config.hints;
  }

  /// Called once after the runtime is wired, before any simulated work.
  virtual void attach(StrategyEnv& env) { (void)env; }

  /// Setup-phase hook, after the group file (and database file) exist:
  /// create auxiliary files (N-N per-worker files).
  virtual sim::Task<void> master_setup(StrategyEnv& env);

  /// Result routing for one completed query (Algorithm 1, step 15):
  /// default sends offset lists to contributors (to all workers in
  /// broadcast mode); MW/N-N route nothing here.
  virtual sim::Task<void> route_query_results(
      StrategyEnv& env, std::uint32_t local, const QueryContributors& contributors);

  /// Batch retirement, after the batch's last query was routed: MW writes
  /// the region batch (and notifies under query sync); N-N notifies.
  virtual sim::Task<void> retire_batch(StrategyEnv& env, std::uint32_t first_local,
                                       std::uint32_t last_local);

  /// Extra master-side merge time for one incoming score message (MW pays
  /// per-byte handling of the shipped result payload).
  [[nodiscard]] virtual sim::Time master_merge_extra(
      const StrategyEnv& env, std::uint32_t query, std::uint32_t fragment) const {
    (void)env;
    (void)query;
    (void)fragment;
    return 0;
  }

  /// Teardown, before Finish is sent: drain asynchronous writes (MW
  /// nonblocking mode), assemble the final file (N-N merge).
  virtual sim::Task<void> master_teardown(
      StrategyEnv& env, const std::vector<QueryContributors>& contributors);

  // ---- Worker-side hooks (Algorithm 2). -----------------------------------

  /// Extra bytes shipped with one score message (MW ships the results).
  [[nodiscard]] virtual std::uint64_t score_payload_bytes(
      const StrategyEnv& env, std::uint32_t query, std::uint32_t fragment) const {
    (void)env;
    (void)query;
    (void)fragment;
    return 0;
  }

  /// After a (query, fragment) search completes and its scores are on the
  /// wire: N-N appends the results to the worker's private file.
  virtual sim::Task<void> on_results_ready(StrategyEnv& env, mpi::Rank rank,
                                           std::uint64_t result_bytes);

  /// The write path: flush the worker's accumulated extents (the I/O
  /// phase proper).  Called at batch boundaries; in broadcast mode the
  /// extent list may be empty (a non-contributing collective participant
  /// still joins the round).  `query_tag` is the local query whose offsets
  /// message triggered the flush; WW-Aggr derives its aggregation round
  /// from it.  The default traps: workers of an
  /// `offsets_are_notifications` strategy (MW, N-N) never flush.
  virtual sim::Task<void> flush(StrategyEnv& env, mpi::Rank rank,
                                std::vector<pfs::Extent> extents,
                                std::uint32_t query_tag);

  /// Fail-stop: the worker leaves every synchronization structure
  /// (collectives deactivate the rank so surviving rounds can complete).
  virtual void on_worker_death(StrategyEnv& env, mpi::Rank rank) {
    (void)env;
    (void)rank;
  }

 protected:
  /// Empty per-query notifications for every (query, worker) of a batch —
  /// under query sync, non-placing strategies (MW, N-N) still need workers
  /// to hear about each query so they can join the per-batch barrier.
  static void notify_batch(StrategyEnv& env, std::uint32_t first_local,
                           std::uint32_t last_local);
};

}  // namespace s3asim::core
