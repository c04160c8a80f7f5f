#include "core/strategies/io_strategy.hpp"

#include <algorithm>
#include <map>

#include "core/protocol.hpp"
#include "util/require.hpp"

namespace s3asim::core {

std::vector<pfs::Extent> OffsetService::worker_extents(
    std::uint32_t local, const std::vector<std::uint32_t>& fragments) const {
  const QueryWorkload& workload = workload_->query((*queries_)[local]);
  const std::uint64_t base = (*region_bases_)[local];
  std::vector<std::uint32_t> indices;
  for (const std::uint32_t fragment : fragments)
    for (const std::uint32_t index : workload.by_fragment(fragment))
      indices.push_back(index);
  std::sort(indices.begin(), indices.end());
  std::vector<pfs::Extent> extents;
  extents.reserve(indices.size());
  for (const std::uint32_t index : indices) {
    const std::uint64_t offset = base + workload.offsets[index];
    const std::uint64_t length = workload.results[index].bytes;
    if (!extents.empty() && extents.back().end() == offset)
      extents.back().length += length;  // coalesce adjacent results
    else
      extents.push_back(pfs::Extent{offset, length});
  }
  return extents;
}

void ResultRouter::send_offsets(mpi::Rank worker, std::uint32_t local,
                                std::vector<pfs::Extent> extents) const {
  MasterMsg msg;
  msg.kind = MasterMsg::Kind::Offsets;
  msg.query = (*queries_)[local];
  msg.local_query = local;
  msg.extents = std::move(extents);
  const std::uint64_t bytes =
      model_->control_message_bytes +
      model_->bytes_per_offset_entry * msg.extents.size();
  comm_->post(master_, worker, kTagMasterToWorker, bytes, std::move(msg));
}

sim::Task<void> IoStrategy::master_setup(StrategyEnv& env) {
  (void)env;
  co_return;
}

sim::Task<void> IoStrategy::route_query_results(
    StrategyEnv& env, std::uint32_t local, const QueryContributors& contributors) {
  // Algorithm 1, step 15 (worker-writing default): group the query's
  // fragments per contributing worker, then ship each worker its offset
  // list — and, in broadcast mode, an empty list to every bystander.
  std::map<mpi::Rank, std::vector<std::uint32_t>> fragments_by_worker;
  for (const auto& [worker, fragment] : contributors)
    fragments_by_worker[worker].push_back(fragment);

  for (const mpi::Rank worker : env.workers) {
    const auto it = fragments_by_worker.find(worker);
    const bool contributes = it != fragments_by_worker.end();
    if (!contributes && !env.per_query_msgs_to_all) continue;
    std::vector<pfs::Extent> extents;
    if (contributes) extents = env.offsets.worker_extents(local, it->second);
    env.router.send_offsets(worker, local, std::move(extents));
  }
  co_return;
}

sim::Task<void> IoStrategy::retire_batch(StrategyEnv& env,
                                         std::uint32_t first_local,
                                         std::uint32_t last_local) {
  (void)env;
  (void)first_local;
  (void)last_local;
  co_return;
}

sim::Task<void> IoStrategy::master_teardown(
    StrategyEnv& env, const std::vector<QueryContributors>& contributors) {
  (void)env;
  (void)contributors;
  co_return;
}

sim::Task<void> IoStrategy::on_results_ready(StrategyEnv& env, mpi::Rank rank,
                                             std::uint64_t result_bytes) {
  (void)env;
  (void)rank;
  (void)result_bytes;
  co_return;
}

sim::Task<void> IoStrategy::flush(StrategyEnv& env, mpi::Rank rank,
                                  std::vector<pfs::Extent> extents,
                                  std::uint32_t query_tag) {
  (void)env;
  (void)rank;
  (void)extents;
  (void)query_tag;
  S3A_UNREACHABLE();  // notification-only strategies never flush
  co_return;
}

void IoStrategy::notify_batch(StrategyEnv& env, std::uint32_t first_local,
                              std::uint32_t last_local) {
  for (std::uint32_t local = first_local; local <= last_local; ++local)
    for (const mpi::Rank worker : env.workers)
      env.router.send_offsets(worker, local, {});
}

}  // namespace s3asim::core
