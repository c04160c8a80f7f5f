#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace {

using namespace s3asim::sim;

/// Reference model: the exact total order a stable binary heap dispatches —
/// insertion order within a timestamp, global (at, seq) order across
/// timestamps.
struct RefEntry {
  Time at;
  std::uint64_t seq;
  bool operator<(const RefEntry& other) const {
    return at != other.at ? at < other.at : seq < other.seq;
  }
};

/// Drains `queue` fully and checks the pop sequence equals `expected`
/// sorted by (at, seq).
void expect_fifo_order(EventQueue& queue, std::vector<RefEntry> expected) {
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_FALSE(queue.empty()) << "queue drained early at " << i;
    EXPECT_EQ(queue.top().at, expected[i].at) << "at index " << i;
    const Event event = queue.pop_next();
    EXPECT_EQ(event.at, expected[i].at) << "at index " << i;
    EXPECT_EQ(event.seq, expected[i].seq) << "at index " << i;
  }
  EXPECT_TRUE(queue.empty());
}

/// Pushes a plain entry and records it in `expected`.
void push(EventQueue& queue, std::vector<RefEntry>& expected, Time at,
          std::uint64_t& seq) {
  queue.push({at, seq, {}, kNoCancelSlot, 0});
  expected.push_back({at, seq});
  ++seq;
}

constexpr Time kFar = Time{1} << 40;  // past any ns–ms delay chain

TEST(EventQueueTest, SameTickDispatchesInInsertionOrder) {
  EventQueue queue;
  std::vector<RefEntry> expected;
  std::uint64_t seq = 0;
  while (seq < 100) push(queue, expected, Time{42}, seq);
  expect_fifo_order(queue, std::move(expected));
}

TEST(EventQueueTest, MixedDeltasMatchHeapOrder) {
  // Deltas from the same instant through ns–µs chains, milliseconds, and
  // far-future timers past 2^36 ticks.
  EventQueue queue;
  std::vector<RefEntry> expected;
  s3asim::util::Xoshiro256 rng(1234);
  const Time deltas[] = {0,         1,         63,        64,
                         4095,      7'500,     262'143,   16'777'216,
                         1'000'000, Time{1} << 36, kFar, kFar * 2};
  std::uint64_t seq = 0;
  for (int i = 0; i < 500; ++i)
    push(queue, expected, deltas[rng() % std::size(deltas)], seq);
  expect_fifo_order(queue, std::move(expected));
}

TEST(EventQueueTest, RandomInterleavedPushPopKeepsTotalOrder) {
  // Property test: interleave pushes (at >= current dispatch time, as the
  // scheduler guarantees) with pops and compare every popped event against
  // an ordered reference.  Same-instant pushes exercise the lane, the
  // other deltas the near run and the heap.  The 1–1,000 ns class lands
  // ahead of the other classes (at least 7,500 ns out), so many of its
  // pushes are a new minimum; with hundreds pending the run stays full and
  // spills its latest entries to the heap.
  s3asim::util::Xoshiro256 rng(99);
  EventQueue queue;
  std::set<RefEntry> reference;  // not yet popped
  Time now = 0;
  std::uint64_t seq = 0;
  std::uint64_t popped = 0;
  for (int round = 0; round < 200'000; ++round) {
    // Drift between push-heavy and pop-heavy phases so the pending depth
    // sweeps from empty to a few hundred.
    const bool push_heavy = (round / 2'000) % 2 == 0;
    const bool push = queue.empty() || (rng() % 8) < (push_heavy ? 5u : 3u);
    if (push) {
      Time delta = 0;
      switch (rng() % 6) {
        case 0: delta = 0; break;
        case 1: delta = 1; break;
        case 2: delta = 1 + static_cast<Time>(rng() % 1'000); break;  // front
        case 3: delta = 7'500 + static_cast<Time>(rng() % 92'500); break;
        case 4: delta = 7'500 + static_cast<Time>(rng() % 10'000'000); break;
        default:
          delta = (Time{1} << 36) + static_cast<Time>(rng() % 1'000'000);
      }
      queue.push({now + delta, seq, {}, kNoCancelSlot, 0});
      reference.insert({now + delta, seq});
      ++seq;
    } else {
      const RefEntry best = *reference.begin();
      ASSERT_EQ(queue.size(), reference.size());
      ASSERT_EQ(queue.top().at, best.at) << "after " << popped << " pops";
      const Event event = queue.pop_next();
      ASSERT_EQ(event.at, best.at) << "after " << popped << " pops";
      ASSERT_EQ(event.seq, best.seq) << "after " << popped << " pops";
      now = event.at;
      reference.erase(reference.begin());
      ++popped;
    }
  }
  EXPECT_GT(popped, 90'000u);
  expect_fifo_order(queue, {reference.begin(), reference.end()});
}

TEST(EventQueueTest, HeapEntriesForTheCurrentInstantPrecedeItsLaneEntries) {
  // Events scheduled for t=10 before t=10 was reached sit in the heap;
  // once t=10 is dispatched, new t=10 pushes join the lane behind them.
  EventQueue queue;
  std::vector<RefEntry> expected;
  std::uint64_t seq = 0;
  for (int i = 0; i < 3; ++i) push(queue, expected, Time{10}, seq);
  push(queue, expected, Time{20}, seq);
  const Event first = queue.pop_next();
  EXPECT_EQ(first.at, Time{10});
  EXPECT_EQ(first.seq, 0u);
  expected.erase(expected.begin());
  for (int i = 0; i < 3; ++i) push(queue, expected, Time{10}, seq);
  push(queue, expected, Time{15}, seq);
  expect_fifo_order(queue, std::move(expected));
}

TEST(EventQueueTest, EarlierPushesAfterAStaleFarFutureEntryKeepOrder) {
  // A cancelled far-future timer entry is popped (the scheduler discards
  // it without advancing time), then events earlier than it are pushed:
  // both the lane's instant and the heap must still yield (at, seq) order.
  EventQueue queue;
  std::uint64_t seq = 0;
  queue.push({kFar, seq++, {}, 0, 0});
  EXPECT_EQ(queue.pop_next().at, kFar);
  std::vector<RefEntry> expected;
  for (const Time at : {Time{100}, Time{100}, Time{50}, kFar, Time{100},
                        kFar, Time{0}, kFar + 1})
    push(queue, expected, at, seq);
  const Event head = queue.pop_next();
  EXPECT_EQ(head.at, Time{0});
  expected.erase(std::find_if(expected.begin(), expected.end(),
                              [](const RefEntry& e) { return e.at == 0; }));
  for (const Time at : {Time{0}, Time{50}, Time{100}, kFar})
    push(queue, expected, at, seq);
  expect_fifo_order(queue, std::move(expected));
}

TEST(EventQueueTest, NearRunYieldsToEarlierPushesAndCountsInTopAndSize) {
  // Off the lane's instant (t=0): t=50 joins the empty near run, t=40 sorts
  // ahead of it, and a later t=40 (higher seq) sorts behind the first t=40.
  EventQueue queue;
  queue.push({50, 0, {}, kNoCancelSlot, 0});
  EXPECT_EQ(queue.top().seq, 0u);
  EXPECT_EQ(queue.size(), 1u);
  queue.push({40, 1, {}, kNoCancelSlot, 0});
  EXPECT_EQ(queue.top().at, Time{40});
  EXPECT_EQ(queue.top().seq, 1u);
  EXPECT_EQ(queue.size(), 2u);
  queue.push({40, 2, {}, kNoCancelSlot, 0});
  EXPECT_EQ(queue.top().seq, 1u);
  EXPECT_EQ(queue.size(), 3u);
  expect_fifo_order(queue, {{40, 1}, {40, 2}, {50, 0}});
}

TEST(EventQueueTest, FullNearRunSpillsItsLatestEntryToTheHeap) {
  // Off the lane's instant (t=0), 16 pushes of t=10..160 in scrambled order
  // fill the near run.  A 17th push (t=75) precedes the run's latest entry,
  // so t=160 moves to the heap; an 18th (t=40, tying an entry already in
  // the run) spills t=150 and must drain after the earlier t=40; a 19th
  // (t=5) spills t=140 and becomes the top.
  EventQueue queue;
  std::vector<RefEntry> expected;
  std::uint64_t seq = 0;
  for (Time k = 0; k < 16; ++k)
    push(queue, expected, 10 * (1 + k * 7 % 16), seq);
  EXPECT_EQ(queue.top().at, Time{10});
  EXPECT_EQ(queue.size(), 16u);
  push(queue, expected, Time{75}, seq);
  EXPECT_EQ(queue.top().at, Time{10});
  EXPECT_EQ(queue.size(), 17u);
  push(queue, expected, Time{40}, seq);
  EXPECT_EQ(queue.top().at, Time{10});
  EXPECT_EQ(queue.size(), 18u);
  push(queue, expected, Time{5}, seq);  // full run: spills t=140
  EXPECT_EQ(queue.top().at, Time{5});
  EXPECT_EQ(queue.top().seq, 18u);
  EXPECT_EQ(queue.size(), 19u);
  expect_fifo_order(queue, std::move(expected));
}

TEST(EventQueueTest, HeapEntryPrecedingALaterNearRunEntryPopsFirst) {
  // The run need not precede the heap.  Fill the run (t=10..160), push X
  // (t=170) past its latest entry, so X goes to the heap; pop two, then
  // push Y (t=180), which joins the run now that it has room.  Once the
  // run holds only Y, the heap's X is the earlier event.
  EventQueue queue;
  std::vector<RefEntry> expected;
  std::uint64_t seq = 0;
  for (Time at = 10; at <= 160; at += 10) push(queue, expected, at, seq);
  push(queue, expected, Time{170}, seq);  // X
  std::sort(expected.begin(), expected.end());
  for (int i = 0; i < 2; ++i) {
    const Event event = queue.pop_next();
    EXPECT_EQ(event.at, expected.front().at);
    EXPECT_EQ(event.seq, expected.front().seq);
    expected.erase(expected.begin());
  }
  push(queue, expected, Time{180}, seq);  // Y
  EXPECT_EQ(queue.size(), 16u);
  expect_fifo_order(queue, std::move(expected));
}

TEST(EventQueueTest, SizeTracksPushesAndPops) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.push({10, 0, {}, kNoCancelSlot, 0});
  queue.push({10, 1, {}, kNoCancelSlot, 0});
  queue.push({0, 2, {}, kNoCancelSlot, 0});  // lane: the initial instant
  EXPECT_EQ(queue.size(), 3u);
  (void)queue.pop_next();
  EXPECT_EQ(queue.size(), 2u);
  (void)queue.pop_next();
  (void)queue.pop_next();
  EXPECT_TRUE(queue.empty());
}

// --- Scheduler-level determinism and cancellation ------------------------

Process record_at(Scheduler& sched, Time delay_ns, int id,
                  std::vector<std::pair<Time, int>>& log) {
  co_await sched.delay(delay_ns);
  log.emplace_back(sched.now(), id);
}

TEST(EventQueueTest, SchedulerFifoAmongSimultaneousEvents) {
  // Spawn order must be completion order for equal deadlines, including
  // deadlines that collide after different delay chains.
  Scheduler sched;
  std::vector<std::pair<Time, int>> log;
  for (int id = 0; id < 50; ++id) sched.spawn(record_at(sched, 1000, id, log));
  for (int id = 50; id < 100; ++id)
    sched.spawn(record_at(sched, 500, id, log));
  sched.run();
  ASSERT_EQ(log.size(), 100u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)],
              (std::pair<Time, int>{500, i + 50}));
    EXPECT_EQ(log[static_cast<std::size_t>(i) + 50],
              (std::pair<Time, int>{1000, i}));
  }
}

TEST(EventQueueTest, CancelledEntriesAreSkippedWithoutAdvancingTime) {
  // A waiter suspends on the timer (queueing a cancellable entry at the
  // deadline); cancelling leaves that entry stale in the queue.  Draining
  // must discard it without making the dead deadline the "current time".
  Scheduler sched;
  Timer timer(sched);
  std::vector<std::pair<Time, bool>> log;
  auto waiter = [](Scheduler& s, Timer& t,
                   std::vector<std::pair<Time, bool>>& out) -> Process {
    t.arm_in(seconds(100));
    const bool fired = co_await t.wait();
    out.emplace_back(s.now(), fired);
  };
  auto canceller = [](Scheduler& s, Timer& t) -> Process {
    co_await s.delay(10);
    t.cancel();
  };
  sched.spawn(waiter(sched, timer, log));
  sched.spawn(canceller(sched, timer));
  sched.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair<Time, bool>{10, false}));
  EXPECT_EQ(sched.now(), 10);  // never visited the cancelled deadline
}

TEST(EventQueueTest, CancelledNearRunEntryIsSkippedWithoutAdvancingTime) {
  // The waiter's deadline entry (t=100) is the only pending entry off the
  // lane, so it sits in the near run when the canceller disarms the timer
  // at t=0.  run() must discard it there and leave now() at 0; a later
  // spawn still dispatches at its own time.
  Scheduler sched;
  Timer timer(sched);
  std::vector<std::pair<Time, bool>> log;
  auto waiter = [](Scheduler& s, Timer& t,
                   std::vector<std::pair<Time, bool>>& out) -> Process {
    t.arm_in(100);
    const bool fired = co_await t.wait();
    out.emplace_back(s.now(), fired);
  };
  auto canceller = [](Timer& t) -> Process {
    t.cancel();
    co_return;
  };
  sched.spawn(waiter(sched, timer, log));
  sched.spawn(canceller(timer));
  sched.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair<Time, bool>{0, false}));
  EXPECT_EQ(sched.now(), 0);
  std::vector<std::pair<Time, int>> later;
  sched.spawn(record_at(sched, 5, 0, later));
  sched.run();
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0], (std::pair<Time, int>{5, 0}));
}

TEST(EventQueueTest, SchedulingAfterASkippedCancelledEntryKeepsOrder) {
  // The stale far-future timer entry is the last one popped, leaving the
  // queue's lane at its deadline while now() stays at the cancel time;
  // later spawns land behind that deadline and must still run in order.
  Scheduler sched;
  Timer timer(sched);
  auto waiter = [](Timer& t) -> Process {
    t.arm_in(seconds(100));
    (void)co_await t.wait();
  };
  auto canceller = [](Scheduler& s, Timer& t) -> Process {
    co_await s.delay(10);
    t.cancel();
  };
  sched.spawn(waiter(timer));
  sched.spawn(canceller(sched, timer));
  sched.run();
  ASSERT_EQ(sched.now(), 10);
  std::vector<std::pair<Time, int>> log;
  sched.spawn(record_at(sched, seconds(100) - 10, 0, log));
  sched.spawn(record_at(sched, 5, 1, log));
  sched.spawn(record_at(sched, 0, 2, log));
  sched.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<Time, int>{10, 2}));
  EXPECT_EQ(log[1], (std::pair<Time, int>{15, 1}));
  EXPECT_EQ(log[2], (std::pair<Time, int>{seconds(100), 0}));
}

TEST(EventQueueTest, TimerRearmReusesItsCancelSlot) {
  // Satellite fix: a timer must not grow the token pool on every re-arm.
  Scheduler sched;
  auto proc = [](Scheduler& s) -> Process {
    Timer timer(s);
    for (int i = 0; i < 10'000; ++i) {
      timer.arm_in(seconds(1));
      timer.cancel();
    }
    co_await s.delay(1);
  };
  sched.spawn(proc(sched));
  sched.run();
  EXPECT_EQ(sched.cancel_slots_allocated(), 1u);
}

TEST(EventQueueTest, ManyTimersShareReleasedSlots) {
  // Destroyed timers return their slot to the free list; sequential timer
  // lifetimes should keep the pool at one slot.
  Scheduler sched;
  auto proc = [](Scheduler& s) -> Process {
    for (int i = 0; i < 100; ++i) {
      Timer timer(s);
      timer.arm_in(50);
      co_await timer.wait();
    }
  };
  sched.spawn(proc(sched));
  sched.run();
  EXPECT_EQ(sched.cancel_slots_allocated(), 1u);
}

TEST(EventQueueTest, RunUntilThenEarlierScheduleRebases) {
  // run_until leaves now() ahead of the last dispatched event (and of the
  // lane's instant); a subsequent spawn below the far event must still
  // dispatch in order.
  Scheduler sched;
  std::vector<std::pair<Time, int>> log;
  sched.spawn(record_at(sched, seconds(10), 0, log));
  sched.run_until(seconds(2));
  EXPECT_EQ(sched.now(), seconds(2));
  sched.spawn(record_at(sched, seconds(1), 1, log));  // below the far event
  sched.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<Time, int>{seconds(3), 1}));
  EXPECT_EQ(log[1], (std::pair<Time, int>{seconds(10), 0}));
}

TEST(EventQueueTest, EventsProcessedCounterAdvances) {
  Scheduler sched;
  std::vector<std::pair<Time, int>> log;
  for (int id = 0; id < 5; ++id) sched.spawn(record_at(sched, 100, id, log));
  EXPECT_EQ(sched.events_processed(), 0u);
  sched.run();
  EXPECT_GE(sched.events_processed(), 5u);
}

}  // namespace
