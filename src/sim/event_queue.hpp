#pragma once

/// \file event_queue.hpp
/// The scheduler's event queue: a same-instant FIFO *lane* plus a 4-ary
/// min-heap over compact, trivially-copyable entries, dispatching in exact
/// `(time, insertion sequence)` order.
///
/// The figure runs keep few events pending (30 on average for WW-POSIX at
/// 96 procs), at mostly distinct ns–µs times, plus same-instant wakeups
/// (gate grants, resource handoffs).  The lane takes every push whose `at`
/// equals its instant (while empty: the last dispatched time); `seq` only
/// grows, so appending keeps it sorted.  Other pushes go to the heap.  The
/// next event is the smaller of the two fronts, so the tier affects speed,
/// never order — also for pushes behind the last dispatched time (after
/// `run_until`, or after a cancelled far-future entry was skipped).
/// Cancellation is a `(slot, generation)` pair checked against the
/// scheduler's token pool, so entries stay POD.

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/fifo_ring.hpp"
#include "sim/time.hpp"
#include "util/require.hpp"

namespace s3asim::sim {

/// Slot index meaning "plain entry, not cancellable".
inline constexpr std::uint32_t kNoCancelSlot = 0xffffffffu;

/// One scheduled resumption.  `cancel_slot`/`cancel_gen` identify a
/// generation-counted token in the scheduler's pool; a stale generation
/// means the entry was cancelled and must be discarded on pop.
struct Event {
  Time at = 0;
  std::uint64_t seq = 0;
  std::coroutine_handle<> handle{};
  std::uint32_t cancel_slot = kNoCancelSlot;
  std::uint32_t cancel_gen = 0;
};

class EventQueue {
 public:
  [[nodiscard]] bool empty() const noexcept {
    return lane_.empty() && heap_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return lane_.size() + heap_.size();
  }

  /// Enqueues `event`; its `seq` must exceed every earlier push's.
  void push(const Event& event) {
    if (event.at == lane_at_) {
      lane_.push_back(event);
    } else {
      heap_.push_back(event);
      sift_up(heap_.size() - 1, event);
    }
  }

  /// Next event in (at, seq) order.  Requires !empty().
  [[nodiscard]] const Event& top() const {
    S3A_CHECK_MSG(!empty(), "top on an empty event queue");
    return heap_first() ? heap_.front() : lane_.front();
  }

  /// Removes and returns the next event.  Requires !empty().
  [[nodiscard]] Event pop_next() {
    S3A_CHECK_MSG(!empty(), "pop on an empty event queue");
    const Event event = heap_first() ? heap_pop() : lane_.pop_front();
    if (lane_.empty()) lane_at_ = event.at;
    return event;
  }

 private:
  /// (at, seq) order as one 128-bit compare (`at` is never negative): no
  /// branch to mispredict on the frequent ties in `at`.
  [[nodiscard]] static bool before(const Event& a, const Event& b) noexcept {
    __extension__ using Key = unsigned __int128;
    return (Key{static_cast<std::uint64_t>(a.at)} << 64 | a.seq) <
           (Key{static_cast<std::uint64_t>(b.at)} << 64 | b.seq);
  }

  [[nodiscard]] bool heap_first() const noexcept {
    return !heap_.empty() &&
           (lane_.empty() || before(heap_.front(), lane_.front()));
  }

  /// Places `event` at `hole` or above it, moving later parents down.
  void sift_up(std::size_t hole, const Event& event) {
    for (; hole > 0; hole = (hole - 1) / 4) {
      const Event& parent = heap_[(hole - 1) / 4];
      if (!before(event, parent)) break;
      heap_[hole] = parent;
    }
    heap_[hole] = event;
  }

  /// Floyd's bottom-up pop: the hole walks to a leaf along the smallest
  /// children, then the old last entry (usually late) sifts up from there.
  Event heap_pop() {
    const Event first = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size == 0) return first;
    const Event* h = heap_.data();
    std::size_t hole = 0;
    for (std::size_t c = 1; c < size; c = 4 * hole + 1) {  // c: 1st child
      std::size_t best = c;
      if (c + 4 <= size) {  // full group: a branch-free tournament
        const std::size_t l = c + (before(h[c + 1], h[c]) ? 1 : 0);
        const std::size_t r = c + (before(h[c + 3], h[c + 2]) ? 3 : 2);
        best = before(h[r], h[l]) ? r : l;
      } else {
        for (std::size_t i = c + 1; i < size; ++i)
          if (before(h[i], h[best])) best = i;
      }
      heap_[hole] = h[best];
      hole = best;
    }
    sift_up(hole, last);
    return first;
  }

  FifoRing<Event> lane_;     ///< entries at `lane_at_`, seq order
  Time lane_at_ = 0;         ///< the lane's instant
  std::vector<Event> heap_;  ///< 4-ary min-heap on (at, seq)
};

}  // namespace s3asim::sim
