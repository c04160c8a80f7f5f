#pragma once

/// \file resource.hpp
/// Counting FIFO resource — models anything that serializes work: a NIC
/// transmit path, a disk head, a server request pipeline.  `capacity`
/// concurrent holders; further acquirers — coroutines or steps — queue in
/// arrival order in one ring.

#include <coroutine>
#include <cstdint>
#include <utility>

#include "sim/fifo_ring.hpp"
#include "sim/scheduler.hpp"
#include "sim/step.hpp"
#include "util/require.hpp"

namespace s3asim::sim {

class Resource {
 public:
  explicit Resource(Scheduler& scheduler, std::uint32_t capacity = 1)
      : scheduler_(&scheduler), capacity_(capacity) {
    S3A_REQUIRE(capacity >= 1);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  struct AcquireAwaiter {
    Resource& resource;
    [[nodiscard]] bool await_ready() const noexcept {
      return resource.try_take();
    }
    void await_suspend(std::coroutine_handle<> handle) {
      resource.waiters_.push_back(handle);
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable acquire; pair with `release()` or use `ResourceHold`.
  [[nodiscard]] AcquireAwaiter acquire() noexcept { return AcquireAwaiter{*this}; }

  /// The step form of `acquire`: takes a free slot and returns true, or
  /// queues `step` — fired once a release hands it the slot — and returns
  /// false.
  [[nodiscard]] bool acquire_or_queue(Step& step) {
    if (try_take()) return true;
    waiters_.push_back(&step);
    return false;
  }

  /// Releases one slot.  If a waiter is queued, the slot is handed over
  /// directly (in_use_ stays constant) and the waiter resumes at `now`.
  void release() {
    S3A_CHECK_MSG(in_use_ > 0, "release without acquire");
    if (!waiters_.empty()) {
      scheduler_->schedule_now(waiters_.pop_front());
    } else {
      --in_use_;
    }
  }

  [[nodiscard]] std::uint32_t in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t queue_length() const noexcept { return waiters_.size(); }

 private:
  [[nodiscard]] bool try_take() noexcept {
    if (in_use_ == capacity_) return false;
    ++in_use_;
    return true;
  }

  Scheduler* scheduler_;
  std::uint32_t capacity_;
  std::uint32_t in_use_ = 0;
  FifoRing<Target> waiters_{};
};

/// RAII release for a slot that has already been acquired:
///   co_await resource.acquire();
///   ResourceHold hold{resource};
class ResourceHold {
 public:
  explicit ResourceHold(Resource& resource) noexcept : resource_(&resource) {}
  ResourceHold(ResourceHold&& other) noexcept
      : resource_(std::exchange(other.resource_, nullptr)) {}
  ResourceHold(const ResourceHold&) = delete;
  ResourceHold& operator=(const ResourceHold&) = delete;
  ResourceHold& operator=(ResourceHold&&) = delete;
  ~ResourceHold() {
    if (resource_ != nullptr) resource_->release();
  }

 private:
  Resource* resource_;
};

}  // namespace s3asim::sim
