#include "mpi/comm.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using namespace s3asim;
using mpi::Comm;
using mpi::kAnySource;
using mpi::kAnyTag;
using mpi::Message;
using sim::Process;
using sim::Scheduler;
using sim::Time;

struct Fixture {
  Scheduler sched;
  net::Network network;
  Comm comm;

  explicit Fixture(mpi::Rank ranks)
      : network(sched, ranks, net::LinkParams::slow_test_network()),
        comm(sched, network, ranks) {}
};

TEST(CommTest, BlockingSendRecvDeliversPayload) {
  Fixture f(2);
  std::string got;
  auto sender = [](Fixture& fx) -> Process {
    co_await fx.comm.send(0, 1, /*tag=*/7, 100, std::string("hello"));
  };
  auto receiver = [](Fixture& fx, std::string& out) -> Process {
    const Message m = co_await fx.comm.recv(1, 0, 7);
    out = m.as<std::string>();
    EXPECT_EQ(m.source, 0u);
    EXPECT_EQ(m.tag, 7);
    EXPECT_EQ(m.bytes, 100u);
  };
  f.sched.spawn(sender(f));
  f.sched.spawn(receiver(f, got));
  f.sched.run();
  EXPECT_EQ(got, "hello");
}

TEST(CommTest, RecvBlocksUntilMessageArrives) {
  Fixture f(2);
  Time recv_done = -1;
  auto sender = [](Fixture& fx) -> Process {
    co_await fx.sched.delay(5000);
    co_await fx.comm.send(0, 1, 1, 0);
  };
  auto receiver = [](Fixture& fx, Time& out) -> Process {
    (void)co_await fx.comm.recv(1, 0, 1);
    out = fx.sched.now();
  };
  f.sched.spawn(sender(f));
  f.sched.spawn(receiver(f, recv_done));
  f.sched.run();
  EXPECT_GE(recv_done, 5000 + 100'000);  // delay + latency
}

TEST(CommTest, UnexpectedMessageQueueHoldsEarlyArrivals) {
  Fixture f(2);
  int got = 0;
  auto sender = [](Fixture& fx) -> Process {
    co_await fx.comm.send(0, 1, 3, 0, 41);
  };
  auto receiver = [](Fixture& fx, int& out) -> Process {
    co_await fx.sched.delay(sim::seconds(1.0));  // message arrives first
    EXPECT_EQ(fx.comm.unexpected_count(1), 1u);
    const Message m = co_await fx.comm.recv(1, 0, 3);
    out = m.as<int>() + 1;
  };
  f.sched.spawn(sender(f));
  f.sched.spawn(receiver(f, got));
  f.sched.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(f.comm.unexpected_count(1), 0u);
}

TEST(CommTest, TagSelectivity) {
  Fixture f(2);
  std::vector<int> order;
  auto sender = [](Fixture& fx) -> Process {
    co_await fx.comm.send(0, 1, /*tag=*/10, 0, 1);
    co_await fx.comm.send(0, 1, /*tag=*/20, 0, 2);
  };
  auto receiver = [](Fixture& fx, std::vector<int>& log) -> Process {
    // Receive tag 20 first even though tag 10 arrived earlier.
    const Message m20 = co_await fx.comm.recv(1, 0, 20);
    log.push_back(m20.as<int>());
    const Message m10 = co_await fx.comm.recv(1, 0, 10);
    log.push_back(m10.as<int>());
  };
  f.sched.spawn(sender(f));
  f.sched.spawn(receiver(f, order));
  f.sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(CommTest, AnySourceMatchesFirstArrival) {
  Fixture f(3);
  mpi::Rank from = 99;
  auto sender = [](Fixture& fx, mpi::Rank rank, Time when) -> Process {
    co_await fx.sched.delay(when);
    co_await fx.comm.send(rank, 0, 5, 0);
  };
  auto receiver = [](Fixture& fx, mpi::Rank& out) -> Process {
    const Message m = co_await fx.comm.recv(0, kAnySource, 5);
    out = m.source;
  };
  f.sched.spawn(sender(f, 2, 100));
  f.sched.spawn(sender(f, 1, 50'000'000));
  f.sched.spawn(receiver(f, from));
  f.sched.run();
  EXPECT_EQ(from, 2u);
}

TEST(CommTest, AnyTagMatches) {
  Fixture f(2);
  int tag_seen = -1;
  auto sender = [](Fixture& fx) -> Process {
    co_await fx.comm.send(0, 1, 77, 0);
  };
  auto receiver = [](Fixture& fx, int& out) -> Process {
    const Message m = co_await fx.comm.recv(1, 0, kAnyTag);
    out = m.tag;
  };
  f.sched.spawn(sender(f));
  f.sched.spawn(receiver(f, tag_seen));
  f.sched.run();
  EXPECT_EQ(tag_seen, 77);
}

TEST(CommTest, NonOvertakingForIdenticalEnvelopes) {
  Fixture f(2);
  std::vector<int> order;
  auto sender = [](Fixture& fx) -> Process {
    co_await fx.comm.send(0, 1, 4, 10, 1);
    co_await fx.comm.send(0, 1, 4, 10, 2);
    co_await fx.comm.send(0, 1, 4, 10, 3);
  };
  auto receiver = [](Fixture& fx, std::vector<int>& log) -> Process {
    for (int i = 0; i < 3; ++i) {
      const Message m = co_await fx.comm.recv(1, 0, 4);
      log.push_back(m.as<int>());
    }
  };
  f.sched.spawn(sender(f));
  f.sched.spawn(receiver(f, order));
  f.sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CommTest, BarrierSynchronizesAllRanks) {
  Fixture f(4);
  std::vector<Time> after;
  auto party = [](Fixture& fx, Time arrive, std::vector<Time>& log) -> Process {
    co_await fx.sched.delay(arrive);
    co_await fx.comm.barrier();
    log.push_back(fx.sched.now());
  };
  f.sched.spawn(party(f, 10, after));
  f.sched.spawn(party(f, 2000, after));
  f.sched.spawn(party(f, 30, after));
  f.sched.spawn(party(f, 500, after));
  f.sched.run();
  ASSERT_EQ(after.size(), 4u);
  for (const Time t : after) {
    EXPECT_EQ(t, after[0]);
    EXPECT_GE(t, 2000);
  }
}

TEST(CommTest, BigMessageSlowerThanSmall) {
  Fixture f(3);
  Time small_done = -1, big_done = -1;
  auto send_and_time = [](Fixture& fx, mpi::Rank src, mpi::Rank dst,
                          std::uint64_t bytes, Time& out) -> Process {
    co_await fx.comm.send(src, dst, 1, bytes);
    out = fx.sched.now();
  };
  auto drain = [](Fixture& fx, mpi::Rank self, mpi::Rank src) -> Process {
    (void)co_await fx.comm.recv(self, src, 1);
  };
  f.sched.spawn(send_and_time(f, 0, 1, 100, small_done));
  f.sched.spawn(send_and_time(f, 2, 1, 1 << 20, big_done));
  f.sched.spawn(drain(f, 1, 0));
  f.sched.spawn(drain(f, 1, 2));
  f.sched.run();
  EXPECT_LT(small_done, big_done);
}

TEST(CommTest, InvalidRankRejected) {
  Fixture f(2);
  // send, recv and post check at the call, before anything is awaited.
  EXPECT_THROW((void)f.comm.send(0, 9, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)f.comm.send(9, 0, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)f.comm.recv(9, 0, 1), std::invalid_argument);
  EXPECT_THROW(f.comm.post(0, 9, 1, 0), std::invalid_argument);
  EXPECT_THROW(f.comm.post(9, 0, 1, 0), std::invalid_argument);
  // A receive from outside the communicator could never match.
  EXPECT_THROW((void)f.comm.recv(0, 9, 1), std::invalid_argument);
  EXPECT_NO_THROW((void)f.comm.recv(0, kAnySource, 1));
  EXPECT_EQ(f.comm.posted_count(0), 0u);
}

TEST(CommTest, NegativeSendTagRejected) {
  Fixture f(2);
  EXPECT_THROW((void)f.comm.send(0, 1, kAnyTag, 0), std::invalid_argument);
  EXPECT_THROW(f.comm.post(0, 1, kAnyTag, 0), std::invalid_argument);
  EXPECT_FALSE(f.sched.has_pending());
}

TEST(CommTest, ReceiveTagBelowAnyTagRejected) {
  Fixture f(2);
  EXPECT_THROW((void)f.comm.recv(1, 0, kAnyTag - 1), std::invalid_argument);
  EXPECT_EQ(f.comm.posted_count(1), 0u);
}

TEST(CommTest, CancelPostedWakesBlockedReceivesAtTheSameInstant) {
  Fixture f(2);
  Time any_source_done = -1;
  Time any_tag_done = -1;
  bool any_source_cancelled = false;
  bool any_tag_cancelled = false;
  auto awaiting = [](Fixture& fx, mpi::Rank source, mpi::Tag tag, Time& at,
                     bool& cancelled) -> Process {
    const Message m = co_await fx.comm.recv(0, source, tag);
    at = fx.sched.now();
    cancelled = m.cancelled;
  };
  auto canceller = [](Fixture& fx) -> Process {
    co_await fx.sched.delay(1000);
    EXPECT_EQ(fx.comm.posted_count(0), 2u);
    fx.comm.cancel_posted(0);
    EXPECT_EQ(fx.comm.posted_count(0), 0u);
  };
  f.sched.spawn(
      awaiting(f, kAnySource, 5, any_source_done, any_source_cancelled));
  f.sched.spawn(awaiting(f, 1, kAnyTag, any_tag_done, any_tag_cancelled));
  f.sched.spawn(canceller(f));
  f.sched.run();
  EXPECT_EQ(any_source_done, 1000);
  EXPECT_EQ(any_tag_done, 1000);
  EXPECT_TRUE(any_source_cancelled);
  EXPECT_TRUE(any_tag_cancelled);
  EXPECT_EQ(f.comm.posted_count(0), 0u);
  EXPECT_EQ(f.sched.live_processes(), 0u);
}

TEST(CommTest, PostedSendArrivesWhenAnIsendWould) {
  // The same message, once fire-and-forget and once as a blocking send,
  // reaches the receiver at the same simulated time: both spawn the same
  // delivery process, and only the blocking one waits for it.
  auto arrival = [](bool posted) {
    Fixture f(2);
    Time arrived = -1;
    auto sender = [](Fixture& fx, bool post) -> Process {
      co_await fx.sched.delay(300);
      if (post) {
        fx.comm.post(0, 1, 4, 2048, 7);
      } else {
        co_await fx.comm.send(0, 1, 4, 2048, 7);
      }
    };
    auto receiver = [](Fixture& fx, Time& at) -> Process {
      const Message m = co_await fx.comm.recv(1, 0, 4);
      EXPECT_EQ(m.as<int>(), 7);
      at = fx.sched.now();
    };
    f.sched.spawn(sender(f, posted));
    f.sched.spawn(receiver(f, arrived));
    f.sched.run();
    return arrived;
  };
  const Time posted = arrival(true);
  EXPECT_GT(posted, 300 + 100'000);  // delay + latency
  EXPECT_EQ(posted, arrival(false));
}

TEST(CommTest, BlockingPairTakesNoPooledBlocks) {
  // The delivery step and its transfer live in the send awaiter, and recv
  // adds no frame of its own.
  constexpr int kMessages = 100;
  Fixture f(2);
  auto sender = [](Fixture& fx) -> Process {
    for (int i = 0; i < kMessages; ++i) co_await fx.comm.send(0, 1, 1, 64, i);
  };
  auto receiver = [](Fixture& fx) -> Process {
    for (int i = 0; i < kMessages; ++i) {
      const Message m = co_await fx.comm.recv(1, 0, 1);
      EXPECT_EQ(m.as<int>(), i);
    }
  };
  const sim::FramePool& pool = sim::FramePool::local();
  const std::uint64_t before = pool.allocations();
  f.sched.spawn(sender(f));
  f.sched.spawn(receiver(f));
  f.sched.run();
  // Only the two Process frames.
  EXPECT_EQ(pool.allocations() - before, 2u);
}

TEST(CommTest, PostTakesOnePooledBlockPerMessage) {
  // A posted delivery has no awaiting frame to live in: one block each,
  // returned when the message is matched.
  constexpr int kMessages = 100;
  Fixture f(2);
  auto sender = [](Fixture& fx) -> Process {
    for (int i = 0; i < kMessages; ++i) fx.comm.post(0, 1, 1, 64, i);
    co_return;
  };
  auto receiver = [](Fixture& fx) -> Process {
    for (int i = 0; i < kMessages; ++i) {
      const Message m = co_await fx.comm.recv(1, 0, 1);
      EXPECT_EQ(m.as<int>(), i);
    }
  };
  const sim::FramePool& pool = sim::FramePool::local();
  const std::uint64_t before = pool.allocations();
  const std::uint64_t live = pool.live();
  f.sched.spawn(sender(f));
  f.sched.spawn(receiver(f));
  f.sched.run();
  EXPECT_EQ(pool.allocations() - before, 2u + kMessages);
  EXPECT_EQ(pool.live(), live);
  EXPECT_EQ(f.sched.live_processes(), 0u);
  EXPECT_EQ(f.sched.finished_processes(), 2u + kMessages);
}

}  // namespace
