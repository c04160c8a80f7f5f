#pragma once

/// \file event_queue.hpp
/// The scheduler's event queue: a same-instant FIFO *lane*, a 16-entry
/// sorted *near run* and a 4-ary min-heap over compact, trivially-copyable
/// entries, dispatching in exact `(time, insertion sequence)` order.
///
/// The figure runs keep 30–125 events pending at mostly distinct ns–µs
/// times, plus same-instant wakeups (gate grants, resource handoffs).  The
/// lane takes every push whose `at` equals its instant (while empty: the
/// last dispatched time); `seq` only grows, so appending keeps it sorted.
/// The other pushes are near-future traffic: 94–98% of them land among the
/// 16 nearest pending events (55% for WW-Coll), and 46–64% are a new
/// minimum.  The near run holds up to 16 of them in descending `(at, seq)`
/// order, so its earliest entry is its last and a new minimum is an append.
/// It is a ring: a push later than every entry goes in front of the head,
/// so an ascending burst (released barrier waiters, each delaying a little
/// longer than the last) shifts nothing either, and neither does a spill.
/// A push joins the run while it has room; once it is full, a push that
/// precedes the run's latest entry joins it and that entry moves to the
/// heap, and every other push goes to the heap.  The run is not required
/// to precede the heap: the next event is the earliest of the lane's front,
/// the run's last entry and the heap top, so the tiers affect speed, never
/// order — also for pushes behind the last dispatched time (after
/// `run_until`, or after a cancelled far-future entry was skipped).  A push
/// carries the largest `seq` pending, so an entry precedes it exactly when
/// the entry's `at` is not later: insertion compares `at` alone.
/// Cancellation is a `(cancel_slot, cancel_gen)` pair checked against the
/// scheduler's token pool, and the target is one tagged word (a coroutine
/// handle or a step), so entries stay POD.  DESIGN.md §7 has the traces.

#include <array>
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
    return run_size_ == 0 && lane_.empty() && heap_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return lane_.size() + run_size_ + heap_.size();
  }

  /// Enqueues `event`; its `seq` must exceed every earlier push's.
  void push(const Event& event) {
    if (event.at == lane_at_) {
      lane_.push_back(event);
      return;
    }
    // `event` carries the largest seq pending, so an entry precedes it
    // exactly when the entry's `at` is not later: `at` alone places it.
    if (run_size_ == kRunCapacity) {
      if (event.at >= run_entry(0).at) {
        heap_push(event);
        return;
      }
      heap_push(run_entry(0));  // the run's latest entry makes room
      run_head_ = (run_head_ + 1) % kRunCapacity;
      --run_size_;
    }
    std::size_t i = run_size_;
    if (i == 0 || event.at >= run_entry(0).at) {
      run_head_ = (run_head_ + kRunCapacity - 1) % kRunCapacity;
      i = 0;  // the new latest entry, ahead of the old head
    } else {
      for (; run_entry(i - 1).at <= event.at; --i)
        run_entry(i) = run_entry(i - 1);
    }
    store(run_entry(i), event);
    ++run_size_;
  }

  /// Next event in (at, seq) order.  Requires !empty().
  [[nodiscard]] const Event& top() const {
    S3A_CHECK_MSG(!empty(), "top on an empty event queue");
    switch (next_source()) {
      case Source::Lane: return lane_.front();
      case Source::Run: return run_entry(run_size_ - 1);
      case Source::Heap: break;
    }
    return heap_.front();
  }

  /// Removes and returns the next event.  Requires !empty().
  [[nodiscard]] Event pop_next() {
    S3A_CHECK_MSG(!empty(), "pop on an empty event queue");
    Event event;
    switch (next_source()) {
      case Source::Lane:
        store(event, lane_.front());
        (void)lane_.pop_front();
        break;
      case Source::Run: store(event, run_entry(--run_size_)); break;
      case Source::Heap: event = heap_pop(); break;
    }
    if (lane_.empty()) lane_at_ = event.at;
    return event;
  }

 private:
  /// The near run's capacity, chosen by measurement (DESIGN.md §7): 16
  /// and 32 timed alike on the Fig 2 peak, 64 lost at 1,024 procs.
  static constexpr std::size_t kRunCapacity = 16;

  enum class Source : std::uint8_t { Lane, Run, Heap };

  /// Entry `k` of the near run, counted from its latest entry (0) to its
  /// earliest (`run_size_ - 1`).
  [[nodiscard]] Event& run_entry(std::size_t k) noexcept {
    return run_[(run_head_ + k) % kRunCapacity];
  }
  [[nodiscard]] const Event& run_entry(std::size_t k) const noexcept {
    return run_[(run_head_ + k) % kRunCapacity];
  }

  /// (at, seq) order as one 128-bit compare (`at` is never negative): no
  /// branch to mispredict on the frequent ties in `at`.
  [[nodiscard]] static bool before(const Event& a, const Event& b) noexcept {
    __extension__ using Key = unsigned __int128;
    return (Key{static_cast<std::uint64_t>(a.at)} << 64 | a.seq) <
           (Key{static_cast<std::uint64_t>(b.at)} << 64 | b.seq);
  }

  /// Which tier holds the next event: the earliest of the lane's front,
  /// the run's last entry and the heap top.  Requires !empty().
  [[nodiscard]] Source next_source() const noexcept {
    Source source = Source::Lane;
    const Event* best = lane_.empty() ? nullptr : &lane_.front();
    if (run_size_ > 0) {
      const Event& last = run_entry(run_size_ - 1);
      if (best == nullptr || before(last, *best)) {
        best = &last;
        source = Source::Run;
      }
    }
    if (!heap_.empty() && (best == nullptr || before(heap_.front(), *best)))
      source = Source::Heap;
    return source;
  }

  /// Copies `event` field by field.  An aggregate copy lets GCC build a
  /// freshly pushed event on the stack with 8-byte stores and reload it in
  /// 16-byte halves that straddle them, which stalls store forwarding on
  /// every push to the run and every pop from it.
  static void store(Event& slot, const Event& event) noexcept {
    slot.at = event.at;
    slot.seq = event.seq;
    slot.target = event.target;
    slot.cancel_slot = event.cancel_slot;
    slot.cancel_gen = event.cancel_gen;
  }

  /// By value: a reference would keep the pushed event's address live on
  /// every push path, pinning it to the stack.
  void heap_push(Event event) {
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
  std::array<Event, kRunCapacity> run_{};  ///< near run: a ring, latest first
  std::size_t run_head_ = 0;               ///< `run_` index of the latest
  std::size_t run_size_ = 0;               ///< entries in the near run
  std::vector<Event> heap_;  ///< 4-ary min-heap on (at, seq)
};

}  // namespace s3asim::sim
