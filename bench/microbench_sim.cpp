/// Micro-benchmarks of the simulation substrate itself: host-side cost of
/// the DES kernel, coroutine tasks, channels, barriers, the network model,
/// and the MPI layer.  These bound how large a simulated system the
/// framework can drive.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "mpi/comm.hpp"
#include "net/network.hpp"
#include "sim/barrier.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace {

using namespace s3asim;
using sim::Process;
using sim::Scheduler;

// --- Kernel fast-path benchmarks (ISSUE 2 acceptance targets) ---------------
// "Schedule/run churn": N interleaved processes each awaiting a child Task
// per step — the dominant pattern in the simulator, where every I/O
// operation and network transfer is a Task.  Exercises the coroutine-frame
// allocator and the event queue together with a live heap of ~N entries.
void BM_ScheduleRunChurn(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  constexpr int kSteps = 64;
  for (auto _ : state) {
    Scheduler sched;
    auto child = [](Scheduler& s, sim::Time d) -> sim::Task<int> {
      co_await s.delay(d);
      co_return 1;
    };
    auto proc = [&child](Scheduler& s, int id) -> Process {
      for (int i = 0; i < kSteps; ++i)
        (void)co_await child(s, 1 + static_cast<sim::Time>(id % 7));
    };
    for (int p = 0; p < procs; ++p) sched.spawn(proc(sched, p));
    benchmark::DoNotOptimize(sched.run());
  }
  // Each step is one Task frame plus two queue events (child delay, parent
  // resume is symmetric transfer); count the delay events as "items".
  state.SetItemsProcessed(state.iterations() * procs * kSteps);
}
BENCHMARK(BM_ScheduleRunChurn)->Arg(64)->Arg(1'024);

// Timer arm/cancel churn: the fault-detection pattern since PR 1 — one
// timeout armed and cancelled per observed sign of life.  Exercises the
// cancellable-entry path of the event queue.
void BM_TimerArmCancelChurn(benchmark::State& state) {
  const auto rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    sim::Timer timer(sched);
    auto proc = [](Scheduler& s, sim::Timer& t, int n) -> Process {
      for (int i = 0; i < n; ++i) {
        t.arm_in(1'000'000);  // far-future deadline, never reached
        t.cancel();
        co_await s.delay(1);
      }
    };
    sched.spawn(proc(sched, timer, rounds));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_TimerArmCancelChurn)->Arg(10'000);

// Task spawn churn with deeper call chains: three nested Task frames per
// step, stressing frame allocation/deallocation in LIFO order.
void BM_TaskSpawnChurn(benchmark::State& state) {
  const auto steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    auto leaf = [](Scheduler& s) -> sim::Task<int> {
      co_await s.delay(1);
      co_return 1;
    };
    auto mid = [&leaf](Scheduler& s) -> sim::Task<int> {
      co_return co_await leaf(s) + 1;
    };
    auto proc = [&mid](Scheduler& s, int n) -> Process {
      for (int i = 0; i < n; ++i) (void)co_await mid(s);
    };
    sched.spawn(proc(sched, steps));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_TaskSpawnChurn)->Arg(10'000);

void BM_SchedulerDelayEvents(benchmark::State& state) {
  const auto count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    auto proc = [](Scheduler& s, int n) -> Process {
      for (int i = 0; i < n; ++i) co_await s.delay(10);
    };
    sched.spawn(proc(sched, count));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_SchedulerDelayEvents)->Arg(1'000)->Arg(100'000);

void BM_ManyProcessesInterleaved(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    auto proc = [](Scheduler& s, int id) -> Process {
      for (int i = 0; i < 32; ++i) co_await s.delay(100 + id % 7);
    };
    for (int p = 0; p < procs; ++p) sched.spawn(proc(sched, p));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * procs * 32);
}
BENCHMARK(BM_ManyProcessesInterleaved)->Arg(100)->Arg(1'000);

// Figure-shaped kernel traffic.  The paper-scale runs keep 30-300 events
// pending (WW-POSIX at 96 procs averages 30) at mostly distinct ns-us
// times, plus same-instant handoffs.  Each process here runs a network-
// style delay chain (link latency, then transfer time), then takes one of
// a few FIFO server resources for a service delay; a release hands the
// slot to the next waiter at the same instant, like a PFS server grant.
// Unlike ScheduleRunChurn, no two processes share a delay pattern, so
// events almost never pile onto a common tick.
void BM_FigureEventMix(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  constexpr int kSteps = 64;
  constexpr std::size_t kServers = 8;
  for (auto _ : state) {
    Scheduler sched;
    std::vector<std::unique_ptr<sim::Resource>> servers;
    for (std::size_t i = 0; i < kServers; ++i)
      servers.push_back(std::make_unique<sim::Resource>(sched));
    auto proc = [](Scheduler& s,
                   std::vector<std::unique_ptr<sim::Resource>>& pool,
                   int id) -> Process {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(id) + 1);
      for (int i = 0; i < kSteps; ++i) {
        co_await s.delay(7'500 + static_cast<sim::Time>(rng() % 2'000));
        co_await s.delay(static_cast<sim::Time>(rng() % 50'000));
        sim::Resource& server = *pool[rng() % kServers];
        co_await server.acquire();
        co_await s.delay(1'000 + static_cast<sim::Time>(rng() % 20'000));
        server.release();
      }
    };
    for (int p = 0; p < procs; ++p) sched.spawn(proc(sched, servers, p));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * procs * kSteps);
}
BENCHMARK(BM_FigureEventMix)->Arg(32)->Arg(300);

// Figure-shaped push mix.  BM_FigureEventMix keeps many chains in flight
// at once, so almost none of its pushes is a new minimum; figure traffic
// is near-future instead (DESIGN.md §7).  Here most processes sit in a
// long compute delay while about one runs a burst of requests, each of
// ns–µs steps: wire time and link latency to a server, a same-instant
// wakeup of the server process (when idle), a service delay, a
// same-instant reply wakeup, and the reply's latency back.  Counted in an
// instrumented build at 48 procs: 33% of pushes are same-instant; of the
// others, 52% are a new minimum and 97.5% land among the 16 nearest
// pending events; 41 events are pending off the lane at a pop on average.
void BM_FigureNearFutureMix(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  constexpr int kBursts = 4;
  constexpr int kRequests = 8;
  constexpr std::size_t kServers = 8;
  struct Request {
    sim::Channel<int>* reply;
    sim::Time service;
  };
  using Inbox = sim::Channel<Request>;
  for (auto _ : state) {
    Scheduler sched;
    std::vector<std::unique_ptr<Inbox>> inboxes;
    for (std::size_t i = 0; i < kServers; ++i)
      inboxes.push_back(std::make_unique<Inbox>(sched));
    auto server = [](Scheduler& s, Inbox& inbox) -> Process {
      while (auto request = co_await inbox.pop()) {
        co_await s.delay(request->service);
        request->reply->push(0);
      }
    };
    int running = procs;
    auto proc = [](Scheduler& s, std::vector<std::unique_ptr<Inbox>>& pool,
                   int& left, int id) -> Process {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(id) + 1);
      sim::Channel<int> reply(s);
      for (int b = 0; b < kBursts; ++b) {
        co_await s.delay(4'000'000 +
                         static_cast<sim::Time>(rng() % 6'000'000));
        for (int q = 0; q < kRequests; ++q) {
          co_await s.delay(1'633 + static_cast<sim::Time>(rng() % 133));
          co_await s.delay(7'500);
          pool[rng() % kServers]->push(
              Request{&reply, 1'000 + static_cast<sim::Time>(rng() % 4'000)});
          (void)co_await reply.pop();
          co_await s.delay(7'500);
        }
      }
      if (--left == 0)
        for (auto& inbox : pool) inbox->close();
    };
    for (auto& inbox : inboxes) sched.spawn(server(sched, *inbox));
    for (int p = 0; p < procs; ++p)
      sched.spawn(proc(sched, inboxes, running, p));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * procs * kBursts * kRequests);
}
BENCHMARK(BM_FigureNearFutureMix)->Arg(48);

void BM_ChannelPingPong(benchmark::State& state) {
  const auto rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    sim::Channel<int> ping(sched), pong(sched);
    auto a = [](Scheduler&, sim::Channel<int>& tx, sim::Channel<int>& rx,
                int n) -> Process {
      for (int i = 0; i < n; ++i) {
        tx.push(i);
        (void)co_await rx.pop();
      }
      tx.close();
    };
    auto b = [](Scheduler&, sim::Channel<int>& rx, sim::Channel<int>& tx)
        -> Process {
      while (auto v = co_await rx.pop()) tx.push(*v);
    };
    sched.spawn(a(sched, ping, pong, rounds));
    sched.spawn(b(sched, ping, pong));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_ChannelPingPong)->Arg(10'000);

void BM_BarrierCycles(benchmark::State& state) {
  const auto parties = static_cast<std::size_t>(state.range(0));
  constexpr int kCycles = 100;
  for (auto _ : state) {
    Scheduler sched;
    sim::Barrier barrier(sched, parties);
    auto proc = [](Scheduler& s, sim::Barrier& b, std::size_t id) -> Process {
      for (int c = 0; c < kCycles; ++c) {
        co_await s.delay(static_cast<sim::Time>(id + 1));
        co_await b.arrive_and_wait();
      }
    };
    for (std::size_t p = 0; p < parties; ++p)
      sched.spawn(proc(sched, barrier, p));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(parties) * kCycles);
}
BENCHMARK(BM_BarrierCycles)->Arg(16)->Arg(96);

void BM_NetworkTransfers(benchmark::State& state) {
  const auto transfers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    net::Network network(sched, 4);
    auto proc = [](Scheduler&, net::Network& n, int count) -> Process {
      for (int i = 0; i < count; ++i) co_await n.transfer(0, 1, 4096);
    };
    sched.spawn(proc(sched, network, transfers));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * transfers);
}
BENCHMARK(BM_NetworkTransfers)->Arg(10'000);

void BM_MpiSendRecvPairs(benchmark::State& state) {
  const auto messages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    net::Network network(sched, 2);
    mpi::Comm comm(sched, network, 2);
    auto sender = [](Scheduler&, mpi::Comm& c, int n) -> Process {
      for (int i = 0; i < n; ++i) co_await c.send(0, 1, 1, 256);
    };
    auto receiver = [](Scheduler&, mpi::Comm& c, int n) -> Process {
      for (int i = 0; i < n; ++i) (void)co_await c.recv(1, 0, 1);
    };
    sched.spawn(sender(sched, comm, messages));
    sched.spawn(receiver(sched, comm, messages));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_MpiSendRecvPairs)->Arg(10'000);

// MW's score traffic: N worker ranks each post (fire-and-forget) their
// messages to rank 0, paying the per-message initiation cost between
// posts, while rank 0 receives them with kAnySource.  Exercises deliver,
// RX serialization at one NIC, and wildcard matching against the posted
// receive or the unexpected queue.
void BM_MpiPostManyToOne(benchmark::State& state) {
  const auto senders = static_cast<mpi::Rank>(state.range(0));
  constexpr int kPerSender = 64;
  for (auto _ : state) {
    Scheduler sched;
    net::Network network(sched, senders + 1);
    mpi::Comm comm(sched, network, senders + 1);
    auto sender = [](Scheduler& s, mpi::Comm& c, mpi::Rank rank,
                     sim::Time gap) -> Process {
      for (int i = 0; i < kPerSender; ++i) {
        c.post(rank, 0, 1, 256);
        co_await s.delay(gap);
      }
    };
    auto receiver = [](mpi::Comm& c, int n) -> Process {
      for (int i = 0; i < n; ++i)
        (void)co_await c.recv(0, mpi::kAnySource, 1);
    };
    const sim::Time gap = network.params().per_message_overhead;
    for (mpi::Rank rank = 1; rank <= senders; ++rank)
      sched.spawn(sender(sched, comm, rank, gap));
    sched.spawn(receiver(comm, static_cast<int>(senders) * kPerSender));
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * senders * kPerSender);
}
BENCHMARK(BM_MpiPostManyToOne)->Arg(16)->Arg(96);

}  // namespace

BENCHMARK_MAIN();
