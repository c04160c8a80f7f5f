#include "sim/scheduler.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "sim/frame_pool.hpp"

namespace s3asim::sim {

std::size_t Scheduler::run() {
  std::size_t resumed = 0;
  while (!queue_.empty()) {
    const Event event = queue_.pop_next();
    if (cancelled(event)) continue;  // dead timer entry
    now_ = event.at;
    dispatch(event.target);
    ++resumed;
    if (prof_every_ != 0 && --prof_countdown_ == 0) profile_sample();
    if (first_error_) {
      events_ += resumed;
      auto error = std::exchange(first_error_, nullptr);
      std::rethrow_exception(error);
    }
  }
  events_ += resumed;
  return resumed;
}

std::size_t Scheduler::run_until(Time deadline) {
  std::size_t resumed = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    const Event event = queue_.pop_next();
    if (cancelled(event)) continue;  // dead timer entry
    now_ = event.at;
    dispatch(event.target);
    ++resumed;
    if (prof_every_ != 0 && --prof_countdown_ == 0) profile_sample();
    if (first_error_) {
      events_ += resumed;
      auto error = std::exchange(first_error_, nullptr);
      std::rethrow_exception(error);
    }
  }
  if (now_ < deadline) now_ = deadline;
  events_ += resumed;
  return resumed;
}

void Scheduler::attach_profiler(obs::Registry* registry,
                                std::uint64_t sample_every) {
  if (registry == nullptr) {
    prof_every_ = 0;
    prof_countdown_ = 0;
    prof_queue_depth_ = prof_pop_seconds_ = nullptr;
    prof_pool_live_ = prof_pool_reused_ = prof_pool_slab_bytes_ = nullptr;
    prof_samples_ = nullptr;
    return;
  }
  S3A_REQUIRE(sample_every >= 1);
  prof_every_ = sample_every;
  prof_countdown_ = sample_every;
  // Resolve the metric objects once; samples are then map-lookup-free.
  prof_queue_depth_ = &registry->histogram("sim.sched.queue_depth");
  // Host-clock latency and the thread-local frame pool (whose counters span
  // every run on the thread) live under host.* so `obs_validate
  // --simulated-only` can strip them and leave an exactly-diffable manifest.
  prof_pop_seconds_ = &registry->histogram("host.sched.pop_seconds");
  prof_pool_live_ = &registry->gauge("host.frame_pool.live");
  prof_pool_reused_ = &registry->gauge("host.frame_pool.reused");
  prof_pool_slab_bytes_ = &registry->gauge("host.frame_pool.slab_bytes");
  prof_samples_ = &registry->counter("sim.sched.profile_samples");
  prof_last_ = std::chrono::steady_clock::now();
}

void Scheduler::profile_sample() {
  prof_countdown_ = prof_every_;
  const auto host_now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(host_now - prof_last_).count();
  prof_last_ = host_now;
  // Mean host-clock cost of one resumption over the sampling window — the
  // "pop latency" a DES-kernel regression shows up in first.
  prof_pop_seconds_->observe(elapsed / static_cast<double>(prof_every_));
  prof_queue_depth_->observe(static_cast<double>(queue_.size()));
  const FramePool& pool = FramePool::local();
  prof_pool_live_->set(static_cast<double>(pool.live()));
  prof_pool_reused_->set(static_cast<double>(pool.reused()));
  prof_pool_slab_bytes_->set(static_cast<double>(pool.slab_bytes()));
  prof_samples_->add(1);
}

}  // namespace s3asim::sim
