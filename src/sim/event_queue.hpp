#pragma once

/// \file event_queue.hpp
/// The scheduler's event queue: a same-instant FIFO *lane*, a one-entry
/// *front slot* and a 4-ary min-heap over compact, trivially-copyable
/// entries, dispatching in exact `(time, insertion sequence)` order.
///
/// The figure runs keep few events pending (30 on average for WW-POSIX at
/// 96 procs), at mostly distinct ns–µs times, plus same-instant wakeups
/// (gate grants, resource handoffs).  The lane takes every push whose `at`
/// equals its instant (while empty: the last dispatched time); `seq` only
/// grows, so appending keeps it sorted.  Of the other pushes, 48–64% are a
/// new minimum (15% for WW-Coll).  The front slot holds one entry and, while
/// occupied, precedes every heap entry: a push takes it if it precedes the
/// slot's entry (which sifts into the heap) or, with the slot empty, the
/// heap top.  Other pushes go to the heap.  Unlike the per-delay tiers that
/// lost (DESIGN.md §7), it needs no delay classes: one compare per push and
/// per pop.  The next event is the smaller of the lane's front and the slot
/// (or heap top), so the tiers affect speed, never order — also for pushes
/// behind the last dispatched time (after `run_until`, or after a
/// cancelled far-future entry was skipped).  Cancellation is a
/// `(cancel_slot, cancel_gen)` pair checked against the scheduler's token
/// pool, and the target is one tagged word (a coroutine handle or a step),
/// so entries stay POD.

#include <cstdint>
#include <vector>

#include "sim/fifo_ring.hpp"
#include "sim/step.hpp"
#include "sim/time.hpp"
#include "util/require.hpp"

namespace s3asim::sim {

/// Slot index meaning "plain entry, not cancellable".
inline constexpr std::uint32_t kNoCancelSlot = 0xffffffffu;

/// One scheduled resumption of a coroutine or firing of a step.
/// `cancel_slot`/`cancel_gen` identify a generation-counted token in the
/// scheduler's pool; a stale generation means the entry was cancelled and
/// must be discarded on pop.
struct Event {
  Time at = 0;
  std::uint64_t seq = 0;
  Target target{};
  std::uint32_t cancel_slot = kNoCancelSlot;
  std::uint32_t cancel_gen = 0;
};

class EventQueue {
 public:
  [[nodiscard]] bool empty() const noexcept {
    return !has_front_ && lane_.empty() && heap_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return lane_.size() + heap_.size() + (has_front_ ? 1 : 0);
  }

  /// Enqueues `event`; its `seq` must exceed every earlier push's.
  void push(const Event& event) {
    if (event.at == lane_at_) {
      lane_.push_back(event);
    } else if (has_front_ ? !before(event, front_)
                          : !heap_.empty() && !before(event, heap_.front())) {
      heap_push(event);
    } else {
      if (has_front_) heap_push(front_);  // sifts to the root
      front_ = event;
      has_front_ = true;
    }
  }

  /// Next event in (at, seq) order.  Requires !empty().
  [[nodiscard]] const Event& top() const {
    S3A_CHECK_MSG(!empty(), "top on an empty event queue");
    if (lane_first()) return lane_.front();
    return has_front_ ? front_ : heap_.front();
  }

  /// Removes and returns the next event.  Requires !empty().
  [[nodiscard]] Event pop_next() {
    S3A_CHECK_MSG(!empty(), "pop on an empty event queue");
    const bool from_lane = lane_first();
    const Event event = from_lane    ? lane_.pop_front()
                        : has_front_ ? front_
                                     : heap_pop();
    has_front_ = has_front_ && from_lane;  // emptied if it went next
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

  /// True when the lane's front precedes the front slot (or, while the
  /// slot is empty, the heap top).  Requires !empty().
  [[nodiscard]] bool lane_first() const noexcept {
    const Event* other =
        has_front_ ? &front_ : heap_.empty() ? nullptr : heap_.data();
    return other == nullptr ||
           (!lane_.empty() && before(lane_.front(), *other));
  }

  void heap_push(const Event& event) {
    heap_.push_back(event);
    sift_up(heap_.size() - 1, event);
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
  Event front_{};            ///< the front slot: precedes every heap entry
  bool has_front_ = false;   ///< the front slot is occupied
  std::vector<Event> heap_;  ///< 4-ary min-heap on (at, seq)
};

}  // namespace s3asim::sim
