#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mpi/comm.hpp"
#include "util/rng.hpp"

/// Stress/property tests for the MPI layer: message conservation, ordering
/// under load, and wildcard matching with many concurrent peers.

namespace {

using namespace s3asim;
using mpi::Comm;
using sim::Process;
using sim::Scheduler;

struct Fixture {
  Scheduler sched;
  net::Network network;
  Comm comm;
  explicit Fixture(mpi::Rank ranks)
      : network(sched, ranks, net::LinkParams::myrinet2000()),
        comm(sched, network, ranks) {}
};

TEST(CommStressTest, ManyToOneAllMessagesArriveInPairOrder) {
  constexpr mpi::Rank kSenders = 12;
  constexpr int kPerSender = 40;
  Fixture f(kSenders + 1);

  auto sender = [](Fixture& fx, mpi::Rank rank) -> Process {
    for (int i = 0; i < kPerSender; ++i)
      co_await fx.comm.send(rank, kSenders, 1, 64 + static_cast<std::uint64_t>(i),
                            i);
  };
  std::map<mpi::Rank, std::vector<int>> received;
  auto receiver = [](Fixture& fx, std::map<mpi::Rank, std::vector<int>>& log)
      -> Process {
    for (int i = 0; i < static_cast<int>(kSenders) * kPerSender; ++i) {
      const mpi::Message m = co_await fx.comm.recv(kSenders, mpi::kAnySource, 1);
      log[m.source].push_back(m.as<int>());
    }
  };
  for (mpi::Rank rank = 0; rank < kSenders; ++rank)
    f.sched.spawn(sender(f, rank));
  f.sched.spawn(receiver(f, received));
  f.sched.run();

  ASSERT_EQ(received.size(), kSenders);
  for (const auto& [rank, values] : received) {
    ASSERT_EQ(values.size(), static_cast<std::size_t>(kPerSender));
    // MPI non-overtaking: per-sender order is preserved.
    for (int i = 0; i < kPerSender; ++i) EXPECT_EQ(values[static_cast<std::size_t>(i)], i);
  }
}

TEST(CommStressTest, RandomPairwiseTrafficBalances) {
  constexpr mpi::Rank kRanks = 6;
  Fixture f(kRanks);
  util::Xoshiro256 rng(2024);

  // Precompute a random traffic matrix so senders and receivers agree.
  std::vector<std::vector<int>> plan(kRanks, std::vector<int>(kRanks, 0));
  for (mpi::Rank src = 0; src < kRanks; ++src)
    for (mpi::Rank dst = 0; dst < kRanks; ++dst)
      if (src != dst) plan[src][dst] = static_cast<int>(rng.uniform_u64(0, 8));

  auto sender = [](Fixture& fx, mpi::Rank src,
                   const std::vector<std::vector<int>>& traffic) -> Process {
    for (mpi::Rank dst = 0; dst < kRanks; ++dst)
      for (int i = 0; i < traffic[src][dst]; ++i)
        co_await fx.comm.send(src, dst, 7, 128);
  };
  std::vector<int> received(kRanks, 0);
  auto receiver = [](Fixture& fx, mpi::Rank self, int expect,
                     std::vector<int>& log) -> Process {
    for (int i = 0; i < expect; ++i) {
      (void)co_await fx.comm.recv(self, mpi::kAnySource, 7);
      ++log[self];
    }
  };
  for (mpi::Rank rank = 0; rank < kRanks; ++rank) {
    int expect = 0;
    for (mpi::Rank src = 0; src < kRanks; ++src) expect += plan[src][rank];
    f.sched.spawn(sender(f, rank, plan));
    f.sched.spawn(receiver(f, rank, expect, received));
  }
  f.sched.run();
  for (mpi::Rank rank = 0; rank < kRanks; ++rank) {
    int expect = 0;
    for (mpi::Rank src = 0; src < kRanks; ++src) expect += plan[src][rank];
    EXPECT_EQ(received[rank], expect) << "rank " << rank;
    EXPECT_EQ(f.comm.unexpected_count(rank), 0u);
    EXPECT_EQ(f.comm.posted_count(rank), 0u);
  }
}

TEST(CommStressTest, InterleavedTagsNeverCross) {
  Fixture f(2);
  constexpr int kRounds = 60;
  auto sender = [](Fixture& fx) -> Process {
    for (int i = 0; i < kRounds; ++i) {
      co_await fx.comm.send(0, 1, /*tag=*/10, 32, i * 2);      // even stream
      co_await fx.comm.send(0, 1, /*tag=*/20, 32, i * 2 + 1);  // odd stream
    }
  };
  std::vector<int> evens, odds;
  auto receiver = [](Fixture& fx, std::vector<int>& even_log,
                     std::vector<int>& odd_log) -> Process {
    for (int i = 0; i < kRounds; ++i) {
      // Drain in the opposite order to force unexpected-queue traversal.
      const mpi::Message odd = co_await fx.comm.recv(1, 0, 20);
      odd_log.push_back(odd.as<int>());
      const mpi::Message even = co_await fx.comm.recv(1, 0, 10);
      even_log.push_back(even.as<int>());
    }
  };
  f.sched.spawn(sender(f));
  f.sched.spawn(receiver(f, evens, odds));
  f.sched.run();
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(evens[static_cast<std::size_t>(i)], i * 2);
    EXPECT_EQ(odds[static_cast<std::size_t>(i)], i * 2 + 1);
  }
}

TEST(CommStressTest, RepeatedBarriersStayDeterministic) {
  Fixture a(5), b(5);
  auto run_one = [](Fixture& fx) {
    auto party = [](Fixture& f2, mpi::Rank rank) -> Process {
      for (int round = 0; round < 20; ++round) {
        co_await f2.sched.delay((rank + 1) * 37);
        co_await f2.comm.barrier();
      }
    };
    for (mpi::Rank rank = 0; rank < 5; ++rank)
      fx.sched.spawn(party(fx, rank));
    fx.sched.run();
    return fx.sched.now();
  };
  EXPECT_EQ(run_one(a), run_one(b));
}

TEST(CommStressTest, BackloggedReceivesDrainInOneEventWithoutStackGrowth) {
  // 1e5 messages wait in rank 1's unexpected queue; one process receives
  // them back to back.  Each receive matches at once, so the drain must
  // neither suspend nor nest a stack frame per message: a receive that
  // finished as a child coroutine and resumed its caller by a plain call
  // overflowed an 8 MiB stack here in unoptimised builds.
  constexpr int kMessages = 100'000;
  Fixture f(2);
  auto sender = [](Fixture& fx) -> Process {
    for (int i = 0; i < kMessages; ++i) co_await fx.comm.send(0, 1, 3, 0, i);
  };
  f.sched.spawn(sender(f));
  f.sched.run();
  ASSERT_EQ(f.comm.unexpected_count(1), static_cast<std::size_t>(kMessages));

  int in_order = 0;
  bool never_posted = true;
  auto drain = [](Fixture& fx, int& ordered, bool& unposted) -> Process {
    for (int i = 0; i < kMessages; ++i) {
      const mpi::Message m = co_await fx.comm.recv(1, 0, 3);
      if (m.as<int>() == i) ++ordered;
      unposted = unposted && fx.comm.posted_count(1) == 0;
    }
  };
  const std::uint64_t events_before = f.sched.events_processed();
  f.sched.spawn(drain(f, in_order, never_posted));
  f.sched.run();
  EXPECT_EQ(f.sched.events_processed() - events_before, 1u);
  EXPECT_EQ(in_order, kMessages);
  EXPECT_TRUE(never_posted);
  EXPECT_EQ(f.comm.unexpected_count(1), 0u);
  EXPECT_EQ(f.sched.live_processes(), 0u);
}

}  // namespace
