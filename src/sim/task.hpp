#pragma once

/// \file task.hpp
/// Coroutine types for simulation code.
///
/// `Process`  — a detached top-level coroutine started with
///              `Scheduler::spawn`.  Its frame self-destroys on completion;
///              exceptions are captured by the scheduler and rethrown from
///              `Scheduler::run()`.
/// `Task<T>`  — a lazily-started child coroutine awaited with `co_await`.
///              The `Task` object (living in the awaiting frame) owns the
///              child frame; completion resumes the parent via symmetric
///              transfer, so arbitrarily deep call chains use O(1) stack.

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/frame_pool.hpp"
#include "sim/scheduler.hpp"
#include "util/require.hpp"

namespace s3asim::sim {

/// Detached top-level simulation process.  Create by calling a coroutine
/// function returning `Process`, then hand it to `Scheduler::spawn`.
class [[nodiscard]] Process {
 public:
  struct promise_type : PoolAllocated {
    Scheduler* scheduler = nullptr;

    Process get_return_object() {
      return Process{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> handle) const noexcept {
        Scheduler* scheduler = handle.promise().scheduler;
        handle.destroy();
        if (scheduler != nullptr) scheduler->note_process_finished();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      if (scheduler != nullptr)
        scheduler->note_process_failed(std::current_exception());
    }
  };

  Process(Process&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process& operator=(Process&&) = delete;
  ~Process() {
    // A Process that was never spawned still owns its frame.
    if (handle_) handle_.destroy();
  }

 private:
  friend class Scheduler;
  explicit Process(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  std::coroutine_handle<promise_type> handle_;
};

inline void Scheduler::spawn(Process process) {
  S3A_REQUIRE_MSG(process.handle_, "spawning an empty process");
  process.handle_.promise().scheduler = this;
  note_process_started();
  schedule_now(std::exchange(process.handle_, {}));
}

/// Lazily-started awaitable child coroutine.
template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type : PoolAllocated {
    std::coroutine_handle<> continuation{};
    std::optional<T> value{};
    std::exception_ptr error{};

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> handle) const noexcept {
        auto continuation = handle.promise().continuation;
        return continuation ? continuation : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    template <class U>
    void return_value(U&& result) {
      value.emplace(std::forward<U>(result));
    }
    void unhandled_exception() noexcept { error = std::current_exception(); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  /// Awaiting a Task starts it immediately (same simulated instant) and
  /// resumes the awaiter when the task completes.
  auto operator co_await() noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      [[nodiscard]] bool await_ready() const noexcept {
        return !handle || handle.done();
      }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      T await_resume() {
        auto& promise = handle.promise();
        if (promise.error) std::rethrow_exception(promise.error);
        S3A_CHECK_MSG(promise.value.has_value(), "task finished without a value");
        return std::move(*promise.value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  std::coroutine_handle<promise_type> handle_;
};

/// void specialization.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : PoolAllocated {
    std::coroutine_handle<> continuation{};
    std::exception_ptr error{};

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> handle) const noexcept {
        auto continuation = handle.promise().continuation;
        return continuation ? continuation : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { error = std::current_exception(); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  auto operator co_await() noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      [[nodiscard]] bool await_ready() const noexcept {
        return !handle || handle.done();
      }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      void await_resume() {
        if (handle.promise().error)
          std::rethrow_exception(handle.promise().error);
      }
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace s3asim::sim
