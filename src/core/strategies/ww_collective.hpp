#pragma once

/// \file ww_collective.hpp
/// Shared behavior of the collective worker-writing strategies (§2.2, à la
/// pioBLAST): every worker joins every write round (`write_at_all`), so
/// offsets are broadcast, the flush blocks the worker process (assignments
/// past the batch frontier are deferred), and a dying rank must deactivate
/// itself from the collective so surviving rounds can complete.

#include "core/strategies/io_strategy.hpp"

namespace s3asim::core {

class WwCollectiveStrategy : public IoStrategy {
 public:
  [[nodiscard]] bool broadcasts_offsets() const noexcept override {
    return true;
  }
  [[nodiscard]] bool flush_blocks_process() const noexcept override {
    return true;
  }
  /// `write_at_all` rounds span a fixed communicator; a worker joining or
  /// draining mid-round would deadlock the collective.
  [[nodiscard]] bool tolerates_membership_changes() const noexcept override {
    return false;
  }

  sim::Task<void> flush(StrategyEnv& env, mpi::Rank rank,
                        std::vector<pfs::Extent> extents,
                        std::uint32_t query_tag) override {
    (void)query_tag;
    const sim::Time start = env.now();
    std::uint64_t bytes = 0;
    for (const pfs::Extent& extent : extents) bytes += extent.length;
    co_await env.file->write_at_all(rank, std::move(extents));
    if (env.config.sync_after_write) co_await env.file->sync(rank);
    env.record_phase(rank, Phase::Io, start, env.now());
    env.rank_stats[rank].bytes_written += bytes;
    // A collective round is a write issued even when this rank contributed
    // nothing — it still participated in the exchange.
    ++env.rank_stats[rank].writes_issued;
  }

  void on_worker_death(StrategyEnv& env, mpi::Rank rank) override {
    if (env.file != nullptr) env.file->deactivate(rank);
  }
};

}  // namespace s3asim::core
