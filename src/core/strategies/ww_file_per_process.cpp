/// \file ww_file_per_process.cpp
/// WW-FilePerProc ("new I/O algorithms", §5): file-per-process (N-N) —
/// each worker appends its results contiguously to a private file the
/// moment they are computed (no offset lists, no waiting); the master
/// assembles the final sorted file at teardown by reading every private
/// file back and list-writing it into place.  The per-query messages of
/// sync mode are pure notifications.

#include <map>
#include <string>

#include "core/strategies/registry.hpp"

namespace s3asim::core {

namespace {

class WwFilePerProcessStrategy final : public IoStrategy {
 public:
  sim::Task<void> master_setup(StrategyEnv& env) override {
    for (const mpi::Rank worker : env.workers) {
      const auto worker_handle = co_await env.fs.create_file(
          env.comm.endpoint_of(env.master),
          "results." + std::to_string(worker) + ".part");
      worker_files_.emplace(
          worker, std::make_unique<mpiio::File>(
                      env.scheduler, env.network, env.fs, env.comm,
                      worker_handle, std::vector<mpi::Rank>{worker},
                      mpiio::Hints{}));
    }
  }

  sim::Task<void> route_query_results(StrategyEnv& env, std::uint32_t local,
                                      const QueryContributors& contributors)
      override {
    // Workers append position-free; nothing to route per query (sync-mode
    // notifications go out from retire_batch).
    (void)env;
    (void)local;
    (void)contributors;
    co_return;
  }

  sim::Task<void> retire_batch(StrategyEnv& env, std::uint32_t first_local,
                               std::uint32_t last_local) override {
    if (env.config.query_sync) notify_batch(env, first_local, last_local);
    co_return;
  }

  sim::Task<void> on_results_ready(StrategyEnv& env, mpi::Rank rank,
                                   std::uint64_t result_bytes) override {
    // Append to the private file immediately — contiguous, position-free,
    // no offset list to wait for.
    if (result_bytes == 0) co_return;
    const sim::Time start = env.now();
    mpiio::File& own = *worker_files_.at(rank);
    co_await own.write_at(rank, cursors_[rank], result_bytes);
    cursors_[rank] += result_bytes;
    if (env.config.sync_after_write) co_await own.sync(rank);
    env.record_phase(rank, Phase::Io, start, env.now());
    env.count_write(rank, result_bytes);
  }

  sim::Task<void> master_teardown(
      StrategyEnv& env,
      const std::vector<QueryContributors>& contributors) override {
    // N-N merge: read every worker's private file back and list-write its
    // results into their sorted positions in the final file.
    const sim::Time merge_start = env.now();
    for (const mpi::Rank worker : env.workers) {
      std::vector<pfs::Extent> extents;
      for (std::uint32_t local = 0; local < env.offsets.query_count();
           ++local) {
        std::vector<std::uint32_t> worker_fragments;
        for (const auto& [contributor, fragment] : contributors[local])
          if (contributor == worker) worker_fragments.push_back(fragment);
        if (worker_fragments.empty()) continue;
        const auto query_extents =
            env.offsets.worker_extents(local, worker_fragments);
        extents.insert(extents.end(), query_extents.begin(),
                       query_extents.end());
      }
      std::uint64_t bytes = 0;
      for (const pfs::Extent& extent : extents) bytes += extent.length;
      if (bytes == 0) continue;
      co_await worker_files_.at(worker)->read_at(env.master, 0, bytes);
      co_await env.file->write_noncontig(env.master, std::move(extents),
                                         mpiio::NoncontigMethod::ListIo);
      env.count_write(env.master, bytes);
    }
    if (env.config.sync_after_write) co_await env.file->sync(env.master);
    env.record_phase(env.master, Phase::Io, merge_start, env.now());
  }

 private:
  /// Each worker's private output file, created by the master at setup.
  std::map<mpi::Rank, std::unique_ptr<mpiio::File>> worker_files_;
  /// Append position per worker.
  std::map<mpi::Rank, std::uint64_t> cursors_;
};

}  // namespace

std::unique_ptr<IoStrategy> make_ww_file_per_process_strategy() {
  return std::make_unique<WwFilePerProcessStrategy>();
}

}  // namespace s3asim::core
