/// Tests for the conservative parallel engine (sim/lp_scheduler.hpp):
/// lookahead validation, deterministic (time, lp, seq) delivery, and the
/// headline contract — bit-identical results for any thread count.  The
/// multi-LP tests run the same model at 1/2/4/8 threads and compare full
/// delivery logs; CI additionally runs this binary under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "sim/lp_scheduler.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace {

using s3asim::sim::Lp;
using s3asim::sim::LpScheduler;
using s3asim::sim::Process;
using s3asim::sim::Scheduler;
using s3asim::sim::Time;

constexpr Time kLookahead = 100;  // ns; tiny windows stress the machinery

/// One delivery observed by an LP: (delivery time, source LP, payload).
struct Delivery {
  Time at = 0;
  std::uint32_t src = 0;
  std::uint64_t payload = 0;
  bool operator==(const Delivery&) const = default;
};

/// Test fixture state: per-LP delivery logs filled in by post-apply
/// lambdas (applies run single-threaded at the barrier, in the engine's
/// deterministic merge order).
struct Net {
  LpScheduler* engine = nullptr;
  std::vector<Lp*> lps;
  std::vector<std::vector<Delivery>> log;

  void post(std::uint32_t src, std::uint32_t dst, Time at,
            std::uint64_t payload) {
    engine->post(*lps[src], dst, at,
                 [this, src, dst, at, payload](Scheduler&) {
                   log[dst].push_back({at, src, payload});
                 });
  }
};

TEST(LpSchedulerTest, ZeroLookaheadRejected) {
  try {
    LpScheduler engine({/*lookahead=*/0, /*threads=*/1});
    FAIL() << "zero lookahead must be rejected";
  } catch (const std::exception& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("positive lookahead"), std::string::npos) << what;
    EXPECT_NE(what.find("--engine=serial"), std::string::npos) << what;
  }
}

TEST(LpSchedulerTest, NegativeLookaheadRejected) {
  EXPECT_THROW(LpScheduler({/*lookahead=*/-5, /*threads=*/2}),
               std::exception);
}

TEST(LpSchedulerTest, PostToUnknownLpRejected) {
  LpScheduler engine({kLookahead, 1});
  Lp& lp = engine.add_lp();
  EXPECT_THROW(engine.post(lp, /*dst=*/7, /*at=*/kLookahead, [](Scheduler&) {}),
               std::exception);
}

namespace violation {
Process violate(Net& net) {
  Scheduler& sched = net.lps[0]->scheduler();
  co_await sched.delay(10);
  // Delivery inside the current window: the lookahead contract is broken
  // and the engine must say so, not corrupt the order.
  net.post(0, 1, sched.now(), /*payload=*/1);
}
}  // namespace violation

TEST(LpSchedulerTest, IntraWindowPostRejectedWithActionableError) {
  LpScheduler engine({kLookahead, 1});
  Net net{&engine, {&engine.add_lp(), &engine.add_lp()}, {}};
  net.log.resize(2);
  net.lps[0]->spawn([&] { return violation::violate(net); });
  try {
    (void)engine.run();
    FAIL() << "intra-window post must be rejected";
  } catch (const std::exception& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("violates the lookahead"), std::string::npos) << what;
    EXPECT_NE(what.find("--engine=serial"), std::string::npos) << what;
  }
}

namespace merge {
/// Stages posts for LP 0 from two sources with deliberately shuffled
/// timestamps before the run; the first barrier must deliver them in
/// (time, source LP, source sequence) order.
Process noop(Net& net) { co_await net.lps[1]->scheduler().delay(1); }
}  // namespace merge

TEST(LpSchedulerTest, DeliveryFollowsTimeLpSeqOrder) {
  LpScheduler engine({kLookahead, 1});
  Net net{&engine, {&engine.add_lp(), &engine.add_lp(), &engine.add_lp()}, {}};
  net.log.resize(3);
  // Source LP 1 stages (t=500, seq 0), (t=300, seq 1); source LP 2 stages
  // (t=300, seq 0).  Expected delivery: (300, lp1), (300, lp2)?  No —
  // the key is (time, src_lp, src_seq): (300,1,1), (300,2,0), (500,1,0).
  net.post(1, 0, 500, 10);
  net.post(1, 0, 300, 11);
  net.post(2, 0, 300, 20);
  net.lps[1]->spawn([&] { return merge::noop(net); });
  (void)engine.run();
  ASSERT_EQ(net.log[0].size(), 3u);
  EXPECT_EQ(net.log[0][0], (Delivery{300, 1, 11}));
  EXPECT_EQ(net.log[0][1], (Delivery{300, 2, 20}));
  EXPECT_EQ(net.log[0][2], (Delivery{500, 1, 10}));
}

namespace pingpong {
struct Court {
  Net net;
  std::vector<std::deque<std::uint64_t>> inbox;
  std::vector<std::coroutine_handle<>> waiter;
  std::uint64_t rallies = 0;

  void serve(std::uint32_t src, std::uint32_t dst, std::uint64_t ball) {
    Scheduler& sched = net.lps[src]->scheduler();
    const Time at = sched.now() + kLookahead + 7;
    net.engine->post(*net.lps[src], dst, at,
                     [this, dst, ball, at](Scheduler& sched_dst) {
                       inbox[dst].push_back(ball);
                       if (waiter[dst])
                         sched_dst.schedule_at(
                             std::exchange(waiter[dst], nullptr), at);
                     });
  }

  struct Recv {
    Court& court;
    std::uint32_t self;
    [[nodiscard]] bool await_ready() const noexcept {
      return !court.inbox[self].empty();
    }
    void await_suspend(std::coroutine_handle<> handle) const noexcept {
      court.waiter[self] = handle;
    }
    [[nodiscard]] std::uint64_t await_resume() const {
      const std::uint64_t ball = court.inbox[self].front();
      court.inbox[self].pop_front();
      return ball;
    }
  };
};

Process player(Court& court, std::uint32_t self, std::uint32_t peer,
               bool serves_first) {
  if (serves_first) court.serve(self, peer, /*ball=*/1);
  for (;;) {
    const std::uint64_t ball = co_await Court::Recv{court, self};
    court.net.log[self].push_back(
        {court.net.lps[self]->scheduler().now(), peer, ball});
    ++court.rallies;
    // Ball 61 is the match point: its receiver stops without returning it,
    // so both players run to completion (no parked frames to leak).
    if (ball <= 60) court.serve(self, peer, ball + 1);
    if (ball >= 60) break;
  }
}

struct Outcome {
  std::vector<std::vector<Delivery>> log;
  std::uint64_t rallies = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross = 0;
  std::size_t events = 0;
};

Outcome run(unsigned threads) {
  LpScheduler engine({kLookahead, threads});
  Court court;
  court.net.engine = &engine;
  court.net.lps = {&engine.add_lp(), &engine.add_lp()};
  court.net.log.resize(2);
  court.inbox.resize(2);
  court.waiter.resize(2);
  court.net.lps[0]->spawn([&] { return player(court, 0, 1, true); });
  court.net.lps[1]->spawn([&] { return player(court, 1, 0, false); });
  Outcome outcome;
  outcome.events = engine.run();
  outcome.log = court.net.log;
  outcome.rallies = court.rallies;
  outcome.windows = engine.windows_executed();
  outcome.cross = engine.cross_posts();
  return outcome;
}
}  // namespace pingpong

TEST(LpSchedulerTest, PingPongIsDeterministicAcrossThreadCounts) {
  const auto baseline = pingpong::run(1);
  EXPECT_EQ(baseline.rallies, 61u);
  EXPECT_GT(baseline.windows, 0u);
  EXPECT_EQ(baseline.cross, 61u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto outcome = pingpong::run(threads);
    EXPECT_EQ(outcome.log, baseline.log) << threads << " threads";
    EXPECT_EQ(outcome.rallies, baseline.rallies) << threads << " threads";
    EXPECT_EQ(outcome.windows, baseline.windows) << threads << " threads";
    EXPECT_EQ(outcome.cross, baseline.cross) << threads << " threads";
    EXPECT_EQ(outcome.events, baseline.events) << threads << " threads";
  }
}

namespace torture {
/// Property/torture model: every LP runs a chatterbox that takes seeded
/// pseudo-random delays and posts to seeded pseudo-random peers.  All
/// draws derive from (seed, lp) only, never from host state, so the
/// simulated behavior is a pure function of the config — what the
/// cross-thread identity assertions below rely on.
Process chatterbox(Net& net, std::uint32_t self, std::uint64_t seed,
                   std::uint32_t messages) {
  s3asim::util::Xoshiro256 rng(s3asim::util::hash_combine(seed, self));
  Scheduler& sched = net.lps[self]->scheduler();
  for (std::uint32_t i = 0; i < messages; ++i) {
    co_await sched.delay(1 + static_cast<Time>(rng() % 400));
    const auto dst = static_cast<std::uint32_t>(rng() % net.lps.size());
    // Any slack >= 0 on top of now + lookahead is always legal: the window
    // never extends past (earliest event + lookahead).
    const Time at = sched.now() + kLookahead + static_cast<Time>(rng() % 300);
    net.post(self, dst, at, (static_cast<std::uint64_t>(self) << 32) | i);
  }
}

struct Outcome {
  std::vector<std::vector<Delivery>> log;
  std::size_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t activations = 0;
  std::uint64_t cross = 0;
  std::vector<Time> now;
};

Outcome run(unsigned threads, std::uint32_t lp_count, std::uint32_t messages) {
  LpScheduler engine({kLookahead, threads});
  Net net{&engine, {}, {}};
  for (std::uint32_t i = 0; i < lp_count; ++i)
    net.lps.push_back(&engine.add_lp());
  net.log.resize(lp_count);
  for (std::uint32_t i = 0; i < lp_count; ++i)
    net.lps[i]->spawn([&, i] { return chatterbox(net, i, 0xfeed, messages); });
  Outcome outcome;
  outcome.events = engine.run();
  outcome.log = std::move(net.log);
  outcome.windows = engine.windows_executed();
  outcome.activations = engine.lp_activations();
  outcome.cross = engine.cross_posts();
  for (Lp* lp : net.lps) outcome.now.push_back(lp->scheduler().now());
  return outcome;
}
}  // namespace torture

TEST(LpSchedulerTest, TortureManyLpsIdenticalAcrossThreadCounts) {
  constexpr std::uint32_t kLps = 32;
  constexpr std::uint32_t kMessages = 40;
  const auto baseline = torture::run(1, kLps, kMessages);
  // Every message is delivered exactly once.
  std::size_t delivered = 0;
  for (const auto& log : baseline.log) delivered += log.size();
  EXPECT_EQ(delivered, std::size_t{kLps} * kMessages);
  EXPECT_EQ(baseline.cross, std::uint64_t{kLps} * kMessages);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto outcome = torture::run(threads, kLps, kMessages);
    EXPECT_EQ(outcome.log, baseline.log) << threads << " threads";
    EXPECT_EQ(outcome.events, baseline.events) << threads << " threads";
    EXPECT_EQ(outcome.windows, baseline.windows) << threads << " threads";
    EXPECT_EQ(outcome.activations, baseline.activations)
        << threads << " threads";
    EXPECT_EQ(outcome.now, baseline.now) << threads << " threads";
  }
}

TEST(LpSchedulerTest, PerLpDeliveryTimesNeverRegressWithinABarrierBatch) {
  // Retirement-order property: concatenating each LP's log, entries from
  // one barrier batch are (time, src, seq)-sorted, and an LP's scheduler
  // clock never runs ahead of a delivery it has yet to observe.
  const auto outcome = torture::run(4, 16, 30);
  for (std::size_t lp = 0; lp < outcome.log.size(); ++lp) {
    const auto& log = outcome.log[lp];
    for (std::size_t i = 0; i + 1 < log.size(); ++i) {
      if (log[i].at == log[i + 1].at && log[i].src == log[i + 1].src) {
        const auto seq_a = log[i].payload & 0xffffffff;
        const auto seq_b = log[i + 1].payload & 0xffffffff;
        EXPECT_LT(seq_a, seq_b) << "same-instant same-source inversion";
      }
    }
  }
}

namespace singlelp {
Process looper(Scheduler& sched, std::uint64_t* acc) {
  s3asim::util::Xoshiro256 rng(123);
  for (int i = 0; i < 200; ++i) {
    co_await sched.delay(static_cast<Time>(rng() % 5000));
    *acc = s3asim::util::hash_combine(*acc, static_cast<std::uint64_t>(i));
  }
}
}  // namespace singlelp

TEST(LpSchedulerTest, SingleLpWindowedRunMatchesSerialScheduler) {
  // The adopted-single-LP configuration (--engine=parallel on the full
  // model): windowed execution of one scheduler must retire exactly the
  // serial event sequence.
  std::uint64_t serial_acc = 0;
  Scheduler serial;
  serial.spawn(singlelp::looper(serial, &serial_acc));
  const std::size_t serial_events = serial.run();
  const Time serial_now = serial.now();

  std::uint64_t windowed_acc = 0;
  Scheduler windowed;
  windowed.spawn(singlelp::looper(windowed, &windowed_acc));
  LpScheduler engine({kLookahead, 4});
  Lp& lp = engine.adopt_lp(windowed);
  EXPECT_TRUE(lp.pinned());
  const std::size_t windowed_events = engine.run();

  EXPECT_EQ(windowed_events, serial_events);
  EXPECT_EQ(windowed.now(), serial_now);
  EXPECT_EQ(windowed_acc, serial_acc);
  EXPECT_GT(engine.windows_executed(), 0u);
}

namespace stress {
/// Each LP ticks once per lookahead, so every window holds one event per
/// LP and runs the full worker round handshake.
Process ticker(Scheduler& sched, std::uint64_t ticks, std::uint64_t* count) {
  for (std::uint64_t i = 0; i < ticks; ++i) {
    co_await sched.delay(kLookahead);
    ++*count;
  }
}
}  // namespace stress

class LpSchedulerStressTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LpSchedulerStressTest, BackToBackRoundsRunEachLpOncePerWindow) {
  // Regression for the round handshake: a worker still inside the claim
  // loop when a round completed could claim an LP of the next window
  // before its cursor was reset, running that LP twice and leaving the
  // coordinator waiting forever.  10^5 back-to-back rounds of 3 stealable
  // LPs give that interleaving many chances to reappear.
  constexpr std::uint64_t kTicks = 100'000;
  constexpr std::size_t kLps = 3;
  LpScheduler engine({kLookahead, GetParam()});
  std::vector<std::uint64_t> count(kLps, 0);
  for (std::size_t i = 0; i < kLps; ++i) {
    Lp& lp = engine.add_lp();
    lp.spawn(
        [&, i] { return stress::ticker(lp.scheduler(), kTicks, &count[i]); });
  }
  const std::size_t events = engine.run();
  EXPECT_EQ(count, std::vector<std::uint64_t>(kLps, kTicks));
  EXPECT_EQ(events, kLps * (kTicks + 1));
  EXPECT_EQ(engine.windows_executed(), kTicks + 1);
  EXPECT_EQ(engine.lp_activations(), kLps * (kTicks + 1));
  for (std::size_t i = 0; i < kLps; ++i)
    EXPECT_EQ(engine.lp(static_cast<Lp::Id>(i)).scheduler().now(),
              static_cast<Time>(kTicks) * kLookahead);
}

INSTANTIATE_TEST_SUITE_P(Threads, LpSchedulerStressTest,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(LpSchedulerTest, RunIsIdempotentAtQuiescence) {
  LpScheduler engine({kLookahead, 2});
  (void)engine.add_lp();
  EXPECT_EQ(engine.run(), 0u);  // nothing spawned: immediately quiescent
  EXPECT_EQ(engine.windows_executed(), 0u);
}

}  // namespace
