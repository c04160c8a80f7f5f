/// \file ww_aggr.cpp
/// WW-Aggr ("new I/O algorithms", §5): worker-side aggregation — a
/// data-sieving/two-phase hybrid in the spirit of Thakur et al.'s
/// noncontiguous-access work, built entirely on the strategy interface (no
/// runtime changes; its wire traffic rides the reserved kTagStrategy).
///
/// Workers are partitioned into groups of `config.aggregator_fanin`; the
/// first worker of each group is its aggregator.  At every flush the
/// members ship their offset lists *and* result data to the aggregator,
/// which coalesces all adjacent extents and issues one sorted list write on
/// the whole group's behalf — fewer, larger, better-sorted requests at the
/// file system for the price of intra-group shipping.
///
/// WW-Aggr is a `lockstep_flush` strategy (core/strategy.hpp): offsets are
/// broadcast and the flush blocks the worker process, so every
/// worker flushes every batch exactly once, in batch order: the
/// aggregator's per-member receives match the members' sends round for
/// round (per-(src,dst,tag) FIFO), and no cycle master↔aggregation-group
/// exists — the master never waits on a flush-blocked worker.  Worker
/// fault plans *would* deadlock a waiting aggregator, so
/// `validate_fault_plan` rejects the combination up front.

#include <algorithm>
#include <cmath>

#include "core/protocol.hpp"
#include "core/strategies/registry.hpp"

namespace s3asim::core {

namespace {

/// member → aggregator: one flush round's extents (the result data rides
/// along as modeled wire bytes).
struct AggrMsg {
  std::uint32_t batch = 0;
  std::vector<pfs::Extent> extents;
};

class WwAggrStrategy final : public IoStrategy {
 public:
  void attach(StrategyEnv& env) override {
    fanin_ = env.config.aggregator_fanin;
    if (fanin_ == 0 || fanin_ >= env.workers.size())
      fanin_ = env.workers.size();
  }

  sim::Task<void> flush(StrategyEnv& env, mpi::Rank rank,
                        std::vector<pfs::Extent> extents,
                        std::uint32_t query_tag) override {
    const ModelParams& model = env.config.model;
    const std::uint32_t batch = query_tag / env.config.queries_per_flush;
    const std::size_t index = worker_index(env, rank);
    const std::size_t group_first = (index / fanin_) * fanin_;
    const sim::Time start = env.now();

    if (index != group_first) {
      // ---- Member: ship this round's extents and data, then return to
      // the event loop (the aggregator writes on our behalf).
      std::uint64_t data_bytes = 0;
      for (const pfs::Extent& extent : extents) data_bytes += extent.length;
      AggrMsg msg;
      msg.batch = batch;
      msg.extents = std::move(extents);
      const std::uint64_t wire_bytes =
          model.control_message_bytes +
          model.bytes_per_offset_entry * msg.extents.size() + data_bytes;
      env.comm.post(rank, env.workers[group_first], kTagStrategy, wire_bytes,
                    std::move(msg));
      // MPI_Isend initiation cost; the transfer itself is asynchronous.
      co_await env.scheduler.delay(model.network.per_message_overhead);
      env.record_phase(rank, Phase::Io, start, env.now());
      co_return;
    }

    // ---- Aggregator: collect every member's round, coalesce, write once.
    std::uint64_t own_bytes = 0;
    for (const pfs::Extent& extent : extents) own_bytes += extent.length;
    std::uint64_t received_bytes = 0;
    const std::size_t group_end =
        std::min(group_first + fanin_, env.workers.size());
    for (std::size_t i = group_first + 1; i < group_end; ++i) {
      mpi::Message message =
          co_await env.comm.recv(rank, env.workers[i], kTagStrategy);
      const auto& msg = message.as<AggrMsg>();
      S3A_CHECK_MSG(msg.batch == batch,
                    "aggregation rounds out of lockstep");
      for (const pfs::Extent& extent : msg.extents)
        received_bytes += extent.length;
      extents.insert(extents.end(), msg.extents.begin(), msg.extents.end());
    }
    // Staging the members' shipped results into the exchange buffer costs
    // the same per-byte handling as a worker-side merge.
    if (received_bytes > 0)
      co_await env.scheduler.delay(static_cast<sim::Time>(
          std::llround(static_cast<double>(received_bytes) *
                       model.merge_ns_per_byte)));
    std::sort(extents.begin(), extents.end(),
              [](const pfs::Extent& a, const pfs::Extent& b) {
                return a.offset < b.offset;
              });
    std::vector<pfs::Extent> coalesced;
    coalesced.reserve(extents.size());
    for (const pfs::Extent& extent : extents) {
      if (!coalesced.empty() && coalesced.back().end() == extent.offset)
        coalesced.back().length += extent.length;
      else
        coalesced.push_back(extent);
    }
    const std::uint64_t total_bytes = own_bytes + received_bytes;
    if (!coalesced.empty()) {
      co_await env.file->write_noncontig(rank, std::move(coalesced),
                                         mpiio::NoncontigMethod::ListIo);
      if (env.config.sync_after_write) co_await env.file->sync(rank);
    }
    env.record_phase(rank, Phase::Io, start, env.now());
    env.rank_stats[rank].bytes_written += total_bytes;
    if (total_bytes > 0) ++env.rank_stats[rank].writes_issued;
  }

 private:
  [[nodiscard]] static std::size_t worker_index(const StrategyEnv& env,
                                                mpi::Rank rank) {
    const auto it =
        std::find(env.workers.begin(), env.workers.end(), rank);
    S3A_CHECK(it != env.workers.end());
    return static_cast<std::size_t>(it - env.workers.begin());
  }

  std::size_t fanin_ = 0;
};

}  // namespace

std::unique_ptr<IoStrategy> make_ww_aggr_strategy() {
  return std::make_unique<WwAggrStrategy>();
}

}  // namespace s3asim::core
