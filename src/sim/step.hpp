#pragma once

/// \file step.hpp
/// Frame-less activities.
///
/// A `Step` is an object with a fire function.  The scheduler calls that
/// function at each event the object scheduled, where it would resume a
/// coroutine frame for a coroutine.  A wire operation — a network transfer,
/// a PFS round trip, an MPI delivery — is a fixed sequence of stages over a
/// few words of state, so it runs as a step that lives in the awaiting
/// frame or, spawned, in one pooled block, instead of as a coroutine with a
/// frame of its own (DESIGN.md §7 "Frame-less wire operations").
///
/// The resume-last rule: a step that resumes its continuation inline (the
/// coroutine that awaits it, or the step that embeds it) does so as its
/// last act and touches nothing of itself afterwards, because the
/// continuation may end the frame or block the step lives in.
///
/// `Target` is what an event or a wait queue holds: a coroutine handle or a
/// step, told apart by the low bit of one word.

#include <coroutine>
#include <cstdint>

namespace s3asim::sim {

class Step {
 public:
  using FireFn = void (*)(Step&);

  explicit Step(FireFn fire_fn) noexcept : fire_(fire_fn) {}
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

  /// Runs the stages due at the current event.  May throw; a spawned or
  /// scheduled step's exception surfaces from `Scheduler::run`.
  void fire() { fire_(*this); }

 protected:
  ~Step() = default;

 private:
  FireFn fire_;
};

/// A coroutine handle or a `Step`, in one word.
class Target {
 public:
  constexpr Target() noexcept = default;
  // Implicit on purpose: a handle or a step is a target wherever one is
  // scheduled or queued.
  template <class Promise>
  Target(std::coroutine_handle<Promise> handle) noexcept  // NOLINT
      : bits_(reinterpret_cast<std::uintptr_t>(handle.address())) {}
  Target(Step* step) noexcept  // NOLINT
      : bits_(reinterpret_cast<std::uintptr_t>(step) | kStepBit) {}

  [[nodiscard]] bool is_step() const noexcept {
    return (bits_ & kStepBit) != 0;
  }
  [[nodiscard]] Step* step() const noexcept {
    return reinterpret_cast<Step*>(bits_ ^ kStepBit);
  }
  [[nodiscard]] std::coroutine_handle<> handle() const noexcept {
    return std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(bits_));
  }

  /// Resumes the coroutine or fires the step, inline.
  void resume() const {
    if (is_step()) {
      step()->fire();
    } else {
      handle().resume();
    }
  }

 private:
  static constexpr std::uintptr_t kStepBit = 1;
  std::uintptr_t bits_ = 0;
};

// Frames and steps are at least pointer-aligned, so the low bit is free.
static_assert(alignof(Step) >= 2);

}  // namespace s3asim::sim
