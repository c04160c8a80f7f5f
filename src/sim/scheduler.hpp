#pragma once

/// \file scheduler.hpp
/// The discrete-event scheduler.  Every suspension point in the simulator
/// (delays, message arrivals, resource grants, barrier releases) funnels
/// through this queue, which orders events by (time, insertion sequence) —
/// FIFO among simultaneous events — so runs are fully deterministic.  An
/// event resumes a coroutine or fires a frame-less `Step` (step.hpp); both
/// share one sequence, so order never depends on which kind an event is.

#include <chrono>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/step.hpp"
#include "sim/time.hpp"
#include "util/require.hpp"

namespace s3asim::obs {
class Registry;
class Counter;
class Histogram;
class Gauge;
}  // namespace s3asim::obs

namespace s3asim::sim {

class Process;

/// Single-threaded discrete-event scheduler.
///
/// Coroutine frames are owned by their parents (`Task` objects live in the
/// awaiting frame); top-level `Process` frames self-destroy at completion.
/// A spawned `Step` counts as a process too, from `spawn` until it calls
/// `note_process_finished`.
/// A simulation is expected to run to quiescence — `run()` drains the queue
/// and `live_processes()` must reach zero (server loops exit via closed
/// channels).  Destroying a scheduler with live processes leaks their
/// frames; tests assert quiescence instead.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Enqueues a coroutine to resume, or a step to fire, at absolute time
  /// `at` (>= now()).
  void schedule_at(Target target, Time at) {
    S3A_CHECK_MSG(at >= now_, "cannot schedule into the past");
    queue_.push(Event{at, next_seq_++, target, kNoCancelSlot, 0});
  }

  /// Enqueues a target at the current time, after all events already
  /// enqueued for this instant (FIFO fairness).
  void schedule_now(Target target) { schedule_at(target, now_); }

  // --- Cancellable entries -------------------------------------------------
  //
  // A cancellable entry carries a reference to a generation-counted slot in
  // the scheduler-owned token pool.  Bumping the slot's generation
  // invalidates every outstanding entry that references it — arming and
  // cancelling a timer is allocation-free, and a cancelled entry is
  // discarded when it reaches the head of the queue *without* advancing
  // simulated time (a cancelled timeout must not extend the run).

  /// Reference to a pool slot at a specific generation.
  struct CancelRef {
    std::uint32_t slot = kNoCancelSlot;
    std::uint32_t gen = 0;
  };

  /// Invalidates all entries scheduled under `ref` and returns a fresh
  /// reference to the same slot (acquiring a slot on first use).  O(1),
  /// allocation-free after the first call.
  [[nodiscard]] CancelRef cancel_ref_renew(CancelRef ref) {
    if (ref.slot == kNoCancelSlot) {
      if (free_slots_.empty()) {
        cancel_gens_.push_back(0);
        return {static_cast<std::uint32_t>(cancel_gens_.size() - 1), 0};
      }
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return {slot, cancel_gens_[slot]};
    }
    return {ref.slot, ++cancel_gens_[ref.slot]};
  }

  /// Returns the slot to the pool, invalidating outstanding entries.
  void cancel_ref_release(CancelRef ref) {
    if (ref.slot == kNoCancelSlot) return;
    ++cancel_gens_[ref.slot];
    free_slots_.push_back(ref.slot);
  }

  /// True while no renew/release has happened since `ref` was obtained —
  /// i.e. entries scheduled under `ref` are still live.
  [[nodiscard]] bool cancel_ref_current(CancelRef ref) const noexcept {
    return ref.slot != kNoCancelSlot && cancel_gens_[ref.slot] == ref.gen;
  }

  /// Slots ever allocated (tests assert the pool stays small under churn).
  [[nodiscard]] std::size_t cancel_slots_allocated() const noexcept {
    return cancel_gens_.size();
  }

  /// Like schedule_at, but the entry is skipped (and time is *not* advanced
  /// to it) if `ref`'s slot generation moved on by the time it would fire.
  void schedule_cancellable_at(std::coroutine_handle<> handle, Time at,
                               CancelRef ref) {
    S3A_CHECK_MSG(at >= now_, "cannot schedule into the past");
    queue_.push(Event{at, next_seq_++, handle, ref.slot, ref.gen});
  }

  /// Starts a top-level detached process at the current time.
  void spawn(Process process);

  /// Fires `step` at the current time as a detached process: it counts in
  /// `live_processes()` until it calls `note_process_finished()`.
  void spawn(Step& step) {
    note_process_started();
    schedule_now(&step);
  }

  /// Runs until the event queue is empty.  Returns the number of resumptions
  /// performed.  Rethrows the first exception that escaped any process.
  std::size_t run();

  /// Runs until the queue is empty or simulated time would exceed
  /// `deadline`; events after the deadline stay queued.
  std::size_t run_until(Time deadline);

  [[nodiscard]] bool has_pending() const noexcept { return !queue_.empty(); }
  [[nodiscard]] std::size_t live_processes() const noexcept { return live_; }
  [[nodiscard]] std::size_t finished_processes() const noexcept { return finished_; }

  /// Cumulative resumptions across all run()/run_until() calls — the
  /// event-throughput numerator reported in RunStats and BENCH_*.json.
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_;
  }

  /// Arms the DES-kernel profiler: every `sample_every` resumptions the run
  /// loop records the event-queue depth under "sim.sched.queue_depth", and
  /// the host-clock per-event pop latency and the thread's frame-pool
  /// occupancy under "host.sched.pop_seconds" / "host.frame_pool.*".  The
  /// host.* namespace marks the nondeterministic manifest fields, which
  /// `obs_validate --simulated-only` strips for exact diffs
  /// (docs/OBSERVABILITY.md): the pool is thread-local, so its counters
  /// accumulate over every run on the thread.
  /// Samples read host time only — simulated time and event order are
  /// untouched, so profiled runs stay bit-identical.  When detached
  /// (default) the run loop pays a single predicted-not-taken branch per
  /// event.  Pass nullptr to detach.
  void attach_profiler(obs::Registry* registry,
                       std::uint64_t sample_every = 1024);

  /// Awaitable: suspend the current coroutine for `duration` sim-time.
  struct DelayAwaiter {
    Scheduler& scheduler;
    Time duration;
    [[nodiscard]] bool await_ready() const noexcept { return duration <= 0; }
    void await_suspend(std::coroutine_handle<> handle) const {
      scheduler.schedule_at(handle, scheduler.now() + duration);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] DelayAwaiter delay(Time duration) noexcept {
    return DelayAwaiter{*this, duration};
  }

  /// Awaitable: yield to other same-time events, resuming afterwards.
  [[nodiscard]] DelayAwaiter yield() noexcept { return DelayAwaiter{*this, 1}; }

  // Process bookkeeping (used by Process' promise and by spawned steps;
  // not for applications).
  void note_process_started() noexcept { ++live_; }
  void note_process_finished() noexcept {
    --live_;
    ++finished_;
  }
  void note_process_failed(std::exception_ptr error) noexcept {
    if (!first_error_) first_error_ = error;
  }

 private:
  /// True when the entry references a slot whose generation moved on.
  [[nodiscard]] bool cancelled(const Event& event) const noexcept {
    return event.cancel_slot != kNoCancelSlot &&
           cancel_gens_[event.cancel_slot] != event.cancel_gen;
  }

  /// Resumes or fires one event's target.  A step's exception is recorded
  /// as a failed process's would be; a coroutine's never reaches here (its
  /// promise captures it).
  void dispatch(Target target) noexcept {
    if (!target.is_step()) {
      target.handle().resume();
      return;
    }
    try {
      target.step()->fire();
    } catch (...) {
      note_process_failed(std::current_exception());
    }
  }

  /// Records one profiler sample and re-arms the countdown (out of line —
  /// the run loop only pays the countdown branch).
  void profile_sample();

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_ = 0;
  std::size_t live_ = 0;
  std::size_t finished_ = 0;
  std::exception_ptr first_error_{};
  std::vector<std::uint32_t> cancel_gens_;   ///< slot -> current generation
  std::vector<std::uint32_t> free_slots_;    ///< released slot indices

  // Profiler state (inert unless attach_profiler armed it).
  std::uint64_t prof_every_ = 0;       ///< 0 = detached
  std::uint64_t prof_countdown_ = 0;   ///< events until the next sample
  obs::Histogram* prof_queue_depth_ = nullptr;
  obs::Histogram* prof_pop_seconds_ = nullptr;
  obs::Gauge* prof_pool_live_ = nullptr;
  obs::Gauge* prof_pool_reused_ = nullptr;
  obs::Gauge* prof_pool_slab_bytes_ = nullptr;
  obs::Counter* prof_samples_ = nullptr;
  std::chrono::steady_clock::time_point prof_last_{};
};

}  // namespace s3asim::sim
