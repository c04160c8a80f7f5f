#include "pfs/pfs.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace s3asim;
using pfs::Extent;
using pfs::FileHandle;
using pfs::Pfs;
using pfs::PfsParams;
using sim::Process;
using sim::Scheduler;
using sim::Time;

PfsParams test_params(std::uint32_t servers = 4, std::uint64_t strip = 1024) {
  PfsParams params;
  params.layout = pfs::Layout(strip, servers);
  params.disk = pfs::DiskModel::test_model();
  return params;
}

net::LinkParams fast_net() {
  net::LinkParams params;
  params.latency = 10;
  params.bandwidth_bps = 1e12;  // effectively free wire
  params.per_message_overhead = 0;
  return params;
}

struct Fixture {
  Scheduler sched;
  net::Network network;
  Pfs fs;
  explicit Fixture(PfsParams params = test_params(), std::uint32_t clients = 2)
      : network(sched, clients + params.layout.server_count(), fast_net()),
        fs(sched, network, /*server_endpoint_base=*/clients, params) {}

  ~Fixture() {
    fs.shutdown();
    sched.run();
  }
};

TEST(PfsTest, CreateFileReturnsDistinctHandles) {
  Fixture f;
  std::vector<FileHandle> handles;
  auto prog = [](Fixture& fx, std::vector<FileHandle>& out) -> Process {
    out.push_back(co_await fx.fs.create_file(0, "a"));
    out.push_back(co_await fx.fs.create_file(0, "b"));
  };
  f.sched.spawn(prog(f, handles));
  f.sched.run();
  ASSERT_EQ(handles.size(), 2u);
  EXPECT_NE(handles[0], handles[1]);
  EXPECT_EQ(f.fs.file_name(handles[0]), "a");
}

TEST(PfsTest, ContiguousWriteRecordsExtent) {
  Fixture f;
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    co_await fx.fs.write_contiguous(file, 0, 0, 5000);
    EXPECT_TRUE(fx.fs.image(file).covers_exactly(5000));
    EXPECT_EQ(fx.fs.image(file).write_count(), 1u);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
}

TEST(PfsTest, ContiguousWriteFansOutOverServers) {
  Fixture f(test_params(4, 1024));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    // 4 KiB extent = one strip on each of 4 servers.
    co_await fx.fs.write_contiguous(file, 0, 0, 4096);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(f.fs.server_stats(s).requests, 1u) << "server " << s;
    EXPECT_EQ(f.fs.server_stats(s).bytes, 1024u);
    EXPECT_EQ(f.fs.server_stats(s).pairs, 1u);
  }
}

TEST(PfsTest, ListIoBatchesPairsPerServer) {
  Fixture f(test_params(2, 1024));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    // Three scattered extents, all inside strip 0 ⇒ server 0 only, 1 request,
    // 3 pairs.
    const std::vector<Extent> extents{Extent{0, 10}, Extent{100, 10},
                                      Extent{200, 10}};
    co_await fx.fs.write_list(file, 0, extents);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  EXPECT_EQ(f.fs.server_stats(0).requests, 1u);
  EXPECT_EQ(f.fs.server_stats(0).pairs, 3u);
  EXPECT_EQ(f.fs.server_stats(1).requests, 0u);
}

TEST(PfsTest, PosixIssuesOneRequestPerExtent) {
  Fixture f(test_params(2, 1024));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    const std::vector<Extent> extents{Extent{0, 10}, Extent{100, 10},
                                      Extent{200, 10}};
    co_await fx.fs.write_posix(file, 0, extents);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  EXPECT_EQ(f.fs.server_stats(0).requests, 3u);
  EXPECT_EQ(f.fs.server_stats(0).pairs, 3u);
}

TEST(PfsTest, PosixSlowerThanListForScatteredExtents) {
  // Same extent set, both strategies: POSIX must take strictly longer
  // because each extent pays a full round trip + per-request cost.
  const auto params = test_params(4, 1024);
  std::vector<Extent> extents;
  for (std::uint64_t i = 0; i < 64; ++i) extents.push_back(Extent{i * 2048, 512});

  Time posix_time = 0, list_time = 0;
  auto prog = [](Fixture& fx, const std::vector<Extent>& xs, bool use_list,
                 Time& out) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    const Time start = fx.sched.now();
    if (use_list) {
      co_await fx.fs.write_list(file, 0, xs);
    } else {
      co_await fx.fs.write_posix(file, 0, xs);
    }
    out = fx.sched.now() - start;
  };
  {
    Fixture f(params);
    f.sched.spawn(prog(f, extents, false, posix_time));
    f.sched.run();
  }
  {
    Fixture f(params);
    f.sched.spawn(prog(f, extents, true, list_time));
    f.sched.run();
  }
  EXPECT_GT(posix_time, 2 * list_time);
}

TEST(PfsTest, WriteServiceTimeIsExact) {
  // One server, one pair, known byte count: end-to-end time =
  // request wire (latency) + service + ack wire (latency).
  auto params = test_params(1, 1 << 20);
  Fixture f(params);
  Time elapsed = -1;
  auto prog = [](Fixture& fx, Time& out) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    const Time start = fx.sched.now();
    co_await fx.fs.write_contiguous(file, 0, 0, 1000);
    out = fx.sched.now() - start;
  };
  f.sched.spawn(prog(f, elapsed));
  f.sched.run();
  // service = per_request 1000 + per_pair 100 + 1000 B @1e9 = 1000 ns
  // wire: request 10 + ack 10 (bandwidth effectively free).
  const Time service = 1000 + 100 + 1000;
  EXPECT_NEAR(static_cast<double>(elapsed), static_cast<double>(service + 20), 30.0);
}

TEST(PfsTest, ServerQueueSerializesClients) {
  auto params = test_params(1, 1 << 20);
  Fixture f(params, /*clients=*/4);
  std::vector<Time> done(3, -1);
  auto prog = [](Fixture& fx, std::vector<Time>& done_at) -> Process {
    auto writer = [](Fixture& fx2, pfs::FileHandle file, net::EndpointId client,
                     std::uint64_t offset, Time& out) -> Process {
      co_await fx2.fs.write_contiguous(file, client, offset, 100'000);
      out = fx2.sched.now();
    };
    const auto file = co_await fx.fs.create_file(0, "out");
    fx.sched.spawn(writer(fx, file, 0, 0, done_at[0]));
    fx.sched.spawn(writer(fx, file, 1, 100'000, done_at[1]));
    fx.sched.spawn(writer(fx, file, 2, 200'000, done_at[2]));
    co_return;
  };
  f.sched.spawn(prog(f, done));
  f.sched.run();
  std::sort(done.begin(), done.end());
  // Each service is >= 100 µs of disk time; the three must be serialized.
  EXPECT_GE(done[1] - done[0], 100'000);
  EXPECT_GE(done[2] - done[1], 100'000);
}

TEST(PfsTest, SyncTouchesEveryServer) {
  Fixture f(test_params(4, 1024));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    co_await fx.fs.sync(file, 0);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  for (std::uint32_t s = 0; s < 4; ++s)
    EXPECT_EQ(f.fs.server_stats(s).syncs, 1u);
}

TEST(PfsTest, ConcurrentDisjointWritersNoOverlap) {
  Fixture f(test_params(4, 256), /*clients=*/8);
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    auto writer = [](Fixture& fx2, pfs::FileHandle handle, std::uint32_t id) -> Process {
      std::vector<Extent> extents;
      for (std::uint64_t k = 0; k < 16; ++k)
        extents.push_back(Extent{(k * 8 + id) * 100, 100});
      co_await fx2.fs.write_list(handle, id, extents);
    };
    for (std::uint32_t id = 0; id < 8; ++id)
      fx.sched.spawn(writer(fx, file, id));
    co_return;
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  const auto& image = f.fs.image(0);
  EXPECT_EQ(image.overlap_count(), 0u);
  EXPECT_TRUE(image.covers_exactly(16 * 8 * 100));
}

TEST(PfsTest, AggregateStatsSumServers) {
  Fixture f(test_params(4, 1024));
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    co_await fx.fs.write_contiguous(file, 0, 0, 4096);
    co_await fx.fs.sync(file, 0);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  const auto total = f.fs.aggregate_stats();
  EXPECT_EQ(total.requests, 4u);
  EXPECT_EQ(total.bytes, 4096u);
  EXPECT_EQ(total.syncs, 4u);
}

TEST(PfsTest, InvalidHandleRejected) {
  Fixture f;
  EXPECT_THROW((void)f.fs.image(99), std::invalid_argument);
}

}  // namespace
