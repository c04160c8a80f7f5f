#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace {

using namespace s3asim;
using sim::Process;
using sim::Scheduler;
using sim::Time;

net::LinkParams simple_params() {
  net::LinkParams params;
  params.latency = 1000;              // 1 µs
  params.bandwidth_bps = 1e9;         // 1 GB/s ⇒ 1 ns per byte
  params.per_message_overhead = 0;
  return params;
}

Process do_transfer(Scheduler& sched, net::Network& network, net::EndpointId src,
                    net::EndpointId dst, std::uint64_t bytes, Time& done_at) {
  co_await network.transfer(src, dst, bytes);
  done_at = sched.now();
}

/// A transfer sent `start` after time zero; records its completion time
/// and appends `id` to `order` when it completes.
Process timed_transfer(Scheduler& sched, net::Network& network, Time start,
                       net::EndpointId src, net::EndpointId dst,
                       std::uint64_t bytes, Time& done_at,
                       std::vector<std::size_t>& order, std::size_t id) {
  co_await sched.delay(start);
  co_await network.transfer(src, dst, bytes);
  done_at = sched.now();
  order.push_back(id);
}

struct Send {
  Time start;
  net::EndpointId src;
  net::EndpointId dst;
  std::uint64_t bytes;
};

/// Runs `sends` to quiescence; returns their completion times and fills
/// `order` with their indices in completion order.
std::vector<Time> run_sends(Scheduler& sched, net::Network& network,
                            const std::vector<Send>& sends,
                            std::vector<std::size_t>& order) {
  std::vector<Time> done(sends.size(), -1);
  for (std::size_t i = 0; i < sends.size(); ++i)
    sched.spawn(timed_transfer(sched, network, sends[i].start, sends[i].src,
                               sends[i].dst, sends[i].bytes, done[i], order,
                               i));
  sched.run();
  return done;
}

/// One endpoint's counters as a comparable row: messages sent and
/// received, bytes sent and received, TX and RX busy time.
std::vector<std::int64_t> counter_row(const net::Network& network,
                                      net::EndpointId id) {
  const net::EndpointCounters& c = network.counters(id);
  return {static_cast<std::int64_t>(c.messages_sent),
          static_cast<std::int64_t>(c.messages_received),
          static_cast<std::int64_t>(c.bytes_sent),
          static_cast<std::int64_t>(c.bytes_received),
          c.tx_busy,
          c.rx_busy};
}

TEST(NetworkTest, SingleTransferTiming) {
  Scheduler sched;
  net::Network network(sched, 2, simple_params());
  Time done = -1;
  // 1000 bytes: tx 1000 ns + latency 1000 ns + rx 1000 ns.
  sched.spawn(do_transfer(sched, network, 0, 1, 1000, done));
  sched.run();
  EXPECT_EQ(done, 3000);
}

TEST(NetworkTest, ZeroByteTransferPaysLatencyOnly) {
  Scheduler sched;
  net::Network network(sched, 2, simple_params());
  Time done = -1;
  sched.spawn(do_transfer(sched, network, 0, 1, 0, done));
  sched.run();
  EXPECT_EQ(done, 1000);
}

TEST(NetworkTest, PerMessageOverheadCharged) {
  Scheduler sched;
  auto params = simple_params();
  params.per_message_overhead = 500;
  net::Network network(sched, 2, params);
  Time done = -1;
  // tx (500 + 1000) + latency 1000 + rx (500 + 1000)
  sched.spawn(do_transfer(sched, network, 0, 1, 1000, done));
  sched.run();
  EXPECT_EQ(done, 4000);
}

TEST(NetworkTest, SelfSendSkipsWire) {
  Scheduler sched;
  auto params = simple_params();
  params.per_message_overhead = 500;
  net::Network network(sched, 2, params);
  Time done = -1;
  sched.spawn(do_transfer(sched, network, 1, 1, 1 << 20, done));
  sched.run();
  EXPECT_EQ(done, 500);  // software overhead only
}

TEST(NetworkTest, ReceiverSerializesConcurrentSenders) {
  Scheduler sched;
  net::Network network(sched, 3, simple_params());
  std::vector<Time> done(2, -1);
  // Two senders, same receiver, same instant: RX must serialize the 1000-byte
  // ejections: first completes at 3000, second at 4000.
  sched.spawn(do_transfer(sched, network, 0, 2, 1000, done[0]));
  sched.spawn(do_transfer(sched, network, 1, 2, 1000, done[1]));
  sched.run();
  EXPECT_EQ(done[0], 3000);
  EXPECT_EQ(done[1], 4000);
}

TEST(NetworkTest, DistinctReceiversDoNotContend) {
  Scheduler sched;
  net::Network network(sched, 4, simple_params());
  std::vector<Time> done(2, -1);
  sched.spawn(do_transfer(sched, network, 0, 2, 1000, done[0]));
  sched.spawn(do_transfer(sched, network, 1, 3, 1000, done[1]));
  sched.run();
  EXPECT_EQ(done[0], 3000);
  EXPECT_EQ(done[1], 3000);
}

TEST(NetworkTest, SenderSerializesItsOwnMessages) {
  Scheduler sched;
  net::Network network(sched, 3, simple_params());
  std::vector<Time> done(2, -1);
  sched.spawn(do_transfer(sched, network, 0, 1, 1000, done[0]));
  sched.spawn(do_transfer(sched, network, 0, 2, 1000, done[1]));
  sched.run();
  EXPECT_EQ(done[0], 3000);
  // second message leaves the TX path only after the first (at 1000).
  EXPECT_EQ(done[1], 4000);
}

TEST(NetworkTest, CountersTrackTraffic) {
  Scheduler sched;
  net::Network network(sched, 2, simple_params());
  Time done = -1;
  sched.spawn(do_transfer(sched, network, 0, 1, 1234, done));
  sched.run();
  EXPECT_EQ(network.counters(0).messages_sent, 1u);
  EXPECT_EQ(network.counters(0).bytes_sent, 1234u);
  EXPECT_EQ(network.counters(1).messages_received, 1u);
  EXPECT_EQ(network.counters(1).bytes_received, 1234u);
  EXPECT_EQ(network.counters(1).rx_busy, 1234);
}

TEST(NetworkTest, InvalidEndpointRejected) {
  Scheduler sched;
  net::Network network(sched, 2, simple_params());
  Time done = -1;
  sched.spawn(do_transfer(sched, network, 0, 5, 10, done));
  EXPECT_THROW(sched.run(), std::invalid_argument);
}

// The next two pins hold the event count, completion times and order, and
// every endpoint counter that the coroutine form of a transfer produced, so
// a transfer that pushed an event more or fewer, or in another order, shows
// here.  Only tests reach the bounded-fabric stages.

TEST(NetworkTest, ThreeSendersIntoOneReceiverMatchPinnedTimeline) {
  Scheduler sched;
  auto params = simple_params();
  params.per_message_overhead = 250;
  net::Network network(sched, 4, params);
  std::vector<std::size_t> order;
  // Endpoint 0 sends twice (TX contention), 1 once, 2 once after 300 ns;
  // all into endpoint 3, which also sends to itself.
  const auto done = run_sends(sched, network,
                              {{0, 0, 3, 1000},
                               {0, 0, 3, 1000},
                               {0, 1, 3, 500},
                               {300, 2, 3, 2000},
                               {0, 3, 3, 100}},
                              order);
  EXPECT_EQ(done, (std::vector<Time>{3750, 5000, 2500, 7250, 250}));
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 2, 0, 1, 3}));
  EXPECT_EQ(sched.events_processed(), 23u);
  EXPECT_EQ(sched.now(), 7250);
  using Row = std::vector<std::int64_t>;
  EXPECT_EQ(counter_row(network, 0), (Row{2, 0, 2000, 0, 2500, 0}));
  EXPECT_EQ(counter_row(network, 1), (Row{1, 0, 500, 0, 750, 0}));
  EXPECT_EQ(counter_row(network, 2), (Row{1, 0, 2000, 0, 2250, 0}));
  EXPECT_EQ(counter_row(network, 3), (Row{1, 5, 100, 4600, 0, 5500}));
}

TEST(NetworkTest, FabricOfOneMatchesPinnedTimeline) {
  Scheduler sched;
  auto params = simple_params();
  params.per_message_overhead = 100;
  params.fabric_concurrent_transfers = 1;
  net::Network network(sched, 4, params);
  std::vector<std::size_t> order;
  const auto done = run_sends(sched, network,
                              {{0, 0, 2, 1000},
                               {0, 1, 3, 1000},
                               {0, 0, 3, 500},
                               {0, 2, 1, 200},
                               {500, 3, 0, 300}},
                              order);
  EXPECT_EQ(done, (std::vector<Time>{3200, 4300, 5100, 3800, 4300}));
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 3, 1, 4, 2}));
  EXPECT_EQ(sched.events_processed(), 26u);
  EXPECT_EQ(sched.now(), 5100);
  using Row = std::vector<std::int64_t>;
  EXPECT_EQ(counter_row(network, 0), (Row{2, 1, 1500, 300, 1700, 400}));
  EXPECT_EQ(counter_row(network, 1), (Row{1, 1, 1000, 200, 1100, 300}));
  EXPECT_EQ(counter_row(network, 2), (Row{1, 1, 200, 1000, 300, 1100}));
  EXPECT_EQ(counter_row(network, 3), (Row{1, 2, 300, 1500, 400, 1700}));
}

TEST(NetworkTest, ManySendersAggregateThroughputBounded) {
  Scheduler sched;
  net::Network network(sched, 17, simple_params());
  std::vector<Time> done(16, -1);
  // 16 senders × 1000 B into endpoint 16: completion of the last is bounded
  // below by 16 × 1000 ns of RX serialization.
  for (std::uint32_t i = 0; i < 16; ++i)
    sched.spawn(do_transfer(sched, network, i, 16, 1000, done[i]));
  sched.run();
  Time last = 0;
  for (const Time t : done) last = std::max(last, t);
  EXPECT_GE(last, 16 * 1000);
  EXPECT_LE(last, 16 * 1000 + 2000 + 1000);
}

}  // namespace
