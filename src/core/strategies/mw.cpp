/// \file mw.cpp
/// Master-writing (§2.1): workers ship scores *and* full result payloads;
/// the master merges everything centrally and writes each completed batch
/// of query regions as one contiguous call.  The per-query messages workers
/// see under query sync are pure notifications.  `mw_nonblocking_io`
/// ablates §2.1's blocking-I/O observation: batch writes are spawned
/// asynchronously and drained at teardown.

#include <cmath>

#include "core/strategies/registry.hpp"
#include "sim/wait_group.hpp"

namespace s3asim::core {

namespace {

class MwStrategy;

sim::Process mw_async_write(MwStrategy& self, StrategyEnv& env,
                            std::uint32_t first_local, std::uint32_t last_local,
                            sim::WaitGroup& done);

class MwStrategy final : public IoStrategy {
 public:
  void attach(StrategyEnv& env) override {
    pending_writes_ = std::make_unique<sim::WaitGroup>(env.scheduler);
  }

  /// Write a batch of completed query regions as one contiguous call.
  sim::Task<void> write_batch(StrategyEnv& env, std::uint32_t first_local,
                              std::uint32_t last_local, bool record_io_phase) {
    const std::uint64_t base = env.offsets.region_base(first_local);
    const std::uint64_t end = env.offsets.region_base(last_local) +
                              env.offsets.region_length(last_local);
    const sim::Time start = env.now();
    co_await env.file->write_at(env.master, base, end - base);
    if (env.config.sync_after_write) co_await env.file->sync(env.master);
    // Asynchronous (mw_nonblocking_io) writes overlap the master's other
    // phases; only the blocking variant charges the I/O phase here.
    if (record_io_phase)
      env.record_phase(env.master, Phase::Io, start, env.now());
    env.count_write(env.master, end - base);
  }

  sim::Task<void> route_query_results(StrategyEnv& env, std::uint32_t local,
                                      const QueryContributors& contributors)
      override {
    // The master writes itself; per-query notifications (sync mode) go out
    // after the batch boundary, from retire_batch.
    (void)env;
    (void)local;
    (void)contributors;
    co_return;
  }

  sim::Task<void> retire_batch(StrategyEnv& env, std::uint32_t first_local,
                               std::uint32_t last_local) override {
    if (env.config.mw_nonblocking_io) {
      // §2.1 ablation: issue the write asynchronously and keep serving
      // requests; completion is collected at teardown.
      pending_writes_->add();
      env.scheduler.spawn(
          mw_async_write(*this, env, first_local, last_local, *pending_writes_));
    } else {
      co_await write_batch(env, first_local, last_local,
                           /*record_io_phase=*/true);
    }
    if (env.config.query_sync) notify_batch(env, first_local, last_local);
  }

  [[nodiscard]] sim::Time master_merge_extra(
      const StrategyEnv& env, std::uint32_t query,
      std::uint32_t fragment) const override {
    // Centralized result handling: the master pays per-byte processing of
    // the full shipped payload (§2.1).
    const std::uint64_t payload = env.offsets.result_bytes(query, fragment);
    return static_cast<sim::Time>(
        std::llround(static_cast<double>(payload) *
                     env.config.model.master_result_ns_per_byte));
  }

  sim::Task<void> master_teardown(
      StrategyEnv& env,
      const std::vector<QueryContributors>& contributors) override {
    (void)contributors;
    // Drain the outstanding nonblocking batch writes.  (The old per-gate
    // drain recorded one Io span per batch; those spans were contiguous, so
    // the single WaitGroup span charges the identical total.)
    if (pending_writes_->pending() > 0) {
      const sim::Time io_start = env.now();
      co_await pending_writes_->wait();
      env.record_phase(env.master, Phase::Io, io_start, env.now());
    }
  }

  [[nodiscard]] std::uint64_t score_payload_bytes(
      const StrategyEnv& env, std::uint32_t query,
      std::uint32_t fragment) const override {
    // Workers ship the result data itself alongside the scores.
    return env.offsets.result_bytes(query, fragment);
  }

 private:
  /// Outstanding nonblocking batch writes (mw_nonblocking_io): one counting
  /// latch instead of one heap gate per batch.
  std::unique_ptr<sim::WaitGroup> pending_writes_;
};

sim::Process mw_async_write(MwStrategy& self, StrategyEnv& env,
                            std::uint32_t first_local, std::uint32_t last_local,
                            sim::WaitGroup& done) {
  co_await self.write_batch(env, first_local, last_local,
                            /*record_io_phase=*/false);
  done.done();
}

}  // namespace

std::unique_ptr<IoStrategy> make_mw_strategy() {
  return std::make_unique<MwStrategy>();
}

}  // namespace s3asim::core
