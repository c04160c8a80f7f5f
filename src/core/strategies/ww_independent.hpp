#pragma once

/// \file ww_independent.hpp
/// Shared behavior of the independent worker-writing strategies (§2.3):
/// each contributor receives its offset list and issues its own
/// noncontiguous write — WW-POSIX as one POSIX call per extent, WW-List as
/// a single PVFS2 list-I/O call.  No cross-worker coordination: only
/// contributors flush, and an empty flush is a no-op.

#include "core/strategies/io_strategy.hpp"

namespace s3asim::core {

class WwIndependentStrategy : public IoStrategy {
 public:
  explicit WwIndependentStrategy(mpiio::NoncontigMethod method)
      : method_(method) {}

  sim::Task<void> flush(StrategyEnv& env, mpi::Rank rank,
                        std::vector<pfs::Extent> extents,
                        std::uint32_t query_tag) override {
    (void)query_tag;
    const sim::Time start = env.now();
    std::uint64_t bytes = 0;
    for (const pfs::Extent& extent : extents) bytes += extent.length;
    if (!extents.empty()) {
      co_await env.file->write_noncontig(rank, std::move(extents), method_);
      if (env.config.sync_after_write) co_await env.file->sync(rank);
    }
    env.record_phase(rank, Phase::Io, start, env.now());
    env.rank_stats[rank].bytes_written += bytes;
    if (bytes > 0) ++env.rank_stats[rank].writes_issued;
  }

 private:
  mpiio::NoncontigMethod method_;
};

}  // namespace s3asim::core
