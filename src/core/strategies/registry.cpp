#include "core/strategies/registry.hpp"

#include "util/require.hpp"

namespace s3asim::core {

namespace {

/// Independent worker writes (§2.3): each contributor issues its own
/// noncontiguous write of its offset list — one POSIX call per extent
/// (WW-POSIX), one PVFS2 list-I/O call (WW-List) or sieve-buffer windows
/// with read-modify-write hole protection (WW-Sieve).  No cross-worker
/// coordination: only contributors flush, and an empty flush is a no-op.
class IndependentWriter final : public IoStrategy {
 public:
  explicit IndependentWriter(mpiio::NoncontigMethod method) : method_(method) {}

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

/// Collective worker writes (§2.2, à la pioBLAST): every worker joins
/// every `write_at_all` round, run as ROMIO's two-phase exchange (WW-Coll)
/// or as list I/O bracketed by synchronization (WW-CollList, the paper's
/// §5 proposal).  A dying rank deactivates itself from the collective so
/// surviving rounds can complete.
class CollectiveWriter final : public IoStrategy {
 public:
  explicit CollectiveWriter(mpiio::CollectiveAlgorithm algorithm)
      : algorithm_(algorithm) {}

  [[nodiscard]] mpiio::Hints file_hints(
      const SimConfig& config) const override {
    mpiio::Hints hints = config.hints;
    hints.collective_algorithm = algorithm_;
    return hints;
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

 private:
  mpiio::CollectiveAlgorithm algorithm_;
};

}  // namespace

std::unique_ptr<IoStrategy> make_strategy(Strategy strategy) {
  using mpiio::CollectiveAlgorithm;
  using mpiio::NoncontigMethod;
  switch (strategy) {
    case Strategy::MW: return make_mw_strategy();
    case Strategy::WWPosix:
      return std::make_unique<IndependentWriter>(NoncontigMethod::Posix);
    case Strategy::WWList:
      return std::make_unique<IndependentWriter>(NoncontigMethod::ListIo);
    case Strategy::WWSieve:
      return std::make_unique<IndependentWriter>(NoncontigMethod::Sieve);
    case Strategy::WWColl:
      return std::make_unique<CollectiveWriter>(CollectiveAlgorithm::TwoPhase);
    case Strategy::WWCollList:
      return std::make_unique<CollectiveWriter>(
          CollectiveAlgorithm::ListWithSync);
    case Strategy::WWFilePerProcess: return make_ww_file_per_process_strategy();
    case Strategy::WWAggr: return make_ww_aggr_strategy();
  }
  S3A_UNREACHABLE();
}

}  // namespace s3asim::core
