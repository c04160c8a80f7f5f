#include "mpiio/file.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace {

using namespace s3asim;
using mpiio::CollectiveAlgorithm;
using mpiio::Extent;
using mpiio::File;
using mpiio::Hints;
using mpiio::NoncontigMethod;
using sim::Process;
using sim::Scheduler;
using sim::Time;

net::LinkParams fast_net() {
  net::LinkParams params;
  params.latency = 10;
  params.bandwidth_bps = 1e9;
  params.per_message_overhead = 0;
  return params;
}

pfs::PfsParams small_fs() {
  pfs::PfsParams params;
  params.layout = pfs::Layout(1024, 4);
  params.disk = pfs::DiskModel::test_model();
  return params;
}

/// World: `ranks` compute endpoints followed by 4 PFS server endpoints.
struct Fixture {
  Scheduler sched;
  net::Network network;
  mpi::Comm comm;
  pfs::Pfs fs;
  pfs::FileHandle handle = 0;
  std::unique_ptr<File> file;

  explicit Fixture(mpi::Rank ranks, Hints hints = {},
                   std::vector<mpi::Rank> participants = {})
      : network(sched, ranks + 4, fast_net()),
        comm(sched, network, ranks),
        fs(sched, network, ranks, small_fs()) {
    if (participants.empty())
      for (mpi::Rank r = 0; r < ranks; ++r) participants.push_back(r);
    // Create the file synchronously at time zero through rank 0.
    auto create = [](Fixture& fx) -> Process {
      fx.handle = co_await fx.fs.create_file(fx.comm.endpoint_of(0), "results");
    };
    sched.spawn(create(*this));
    sched.run();
    file = std::make_unique<File>(sched, network, fs, comm, handle,
                                  std::move(participants), hints);
  }

  ~Fixture() {
    fs.shutdown();
    sched.run();
  }
};

TEST(MpiioFileTest, WriteAtRecordsContiguousExtent) {
  Fixture f(2);
  auto prog = [](Fixture& fx) -> Process {
    co_await fx.file->write_at(0, 0, 3000);
    co_await fx.file->sync(0);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  EXPECT_TRUE(f.file->image().covers_exactly(3000));
  EXPECT_EQ(f.file->image().write_count(), 1u);
}

TEST(MpiioFileTest, NoncontigPosixAndListProduceSameImage) {
  const std::vector<Extent> extents{{0, 100}, {500, 100}, {2048, 100}};
  for (const auto method : {NoncontigMethod::Posix, NoncontigMethod::ListIo}) {
    Fixture f(2);
    auto prog = [](Fixture& fx, std::vector<Extent> xs,
                   NoncontigMethod m) -> Process {
      co_await fx.file->write_noncontig(1, std::move(xs), m);
    };
    f.sched.spawn(prog(f, extents, method));
    f.sched.run();
    EXPECT_EQ(f.file->image().covered_bytes(), 300u);
    EXPECT_EQ(f.file->image().overlap_count(), 0u);
  }
}

TEST(MpiioFileTest, CollectiveTwoPhaseCoversUnionExactly) {
  Fixture f(4);
  // Interleaved extents: rank r owns pieces r, r+4, r+8, ... of 16×100 B.
  auto participant = [](Fixture& fx, mpi::Rank rank) -> Process {
    std::vector<Extent> extents;
    for (std::uint64_t k = rank; k < 16; k += 4)
      extents.push_back(Extent{k * 100, 100});
    co_await fx.file->write_at_all(rank, std::move(extents));
  };
  for (mpi::Rank r = 0; r < 4; ++r) f.sched.spawn(participant(f, r));
  f.sched.run();
  EXPECT_TRUE(f.file->image().covers_exactly(1600));
}

TEST(MpiioFileTest, CollectiveAllLeaveAtSameTime) {
  Fixture f(3);
  std::vector<Time> leave(3, -1);
  auto participant = [](Fixture& fx, mpi::Rank rank, Time stagger,
                        Time& out) -> Process {
    co_await fx.sched.delay(stagger);
    std::vector<Extent> extents{Extent{rank * 1000ull, 1000}};
    co_await fx.file->write_at_all(rank, std::move(extents));
    out = fx.sched.now();
  };
  f.sched.spawn(participant(f, 0, 0, leave[0]));
  f.sched.spawn(participant(f, 1, 50'000, leave[1]));
  f.sched.spawn(participant(f, 2, 200'000, leave[2]));
  f.sched.run();
  EXPECT_EQ(leave[0], leave[1]);
  EXPECT_EQ(leave[1], leave[2]);
  EXPECT_GE(leave[0], 200'000);
}

TEST(MpiioFileTest, CollectiveWaitTracksStragglerStall) {
  Fixture f(2);
  auto participant = [](Fixture& fx, mpi::Rank rank, Time stagger) -> Process {
    co_await fx.sched.delay(stagger);
    std::vector<Extent> extents{Extent{rank * 100ull, 100}};
    co_await fx.file->write_at_all(rank, std::move(extents));
  };
  f.sched.spawn(participant(f, 0, 0));
  f.sched.spawn(participant(f, 1, 1'000'000));
  f.sched.run();
  EXPECT_GE(f.file->collective_wait(0), 1'000'000);
  EXPECT_LT(f.file->collective_wait(1), 1'000'000);
}

TEST(MpiioFileTest, CollectiveWithEmptyContribution) {
  Fixture f(3);
  auto participant = [](Fixture& fx, mpi::Rank rank) -> Process {
    std::vector<Extent> extents;
    if (rank == 1) extents.push_back(Extent{0, 5000});
    co_await fx.file->write_at_all(rank, std::move(extents));
  };
  for (mpi::Rank r = 0; r < 3; ++r) f.sched.spawn(participant(f, r));
  f.sched.run();
  EXPECT_TRUE(f.file->image().covers_exactly(5000));
}

TEST(MpiioFileTest, CollectiveAllEmptyIsHarmless) {
  Fixture f(2);
  auto participant = [](Fixture& fx, mpi::Rank rank) -> Process {
    co_await fx.file->write_at_all(rank, {});
  };
  for (mpi::Rank r = 0; r < 2; ++r) f.sched.spawn(participant(f, r));
  f.sched.run();
  EXPECT_EQ(f.file->image().covered_bytes(), 0u);
}

TEST(MpiioFileTest, SequentialCollectiveRoundsMatchUp) {
  Fixture f(2);
  auto participant = [](Fixture& fx, mpi::Rank rank) -> Process {
    for (std::uint64_t round = 0; round < 3; ++round) {
      std::vector<Extent> extents{
          Extent{round * 2000 + rank * 1000ull, 1000}};
      co_await fx.file->write_at_all(rank, std::move(extents));
    }
  };
  for (mpi::Rank r = 0; r < 2; ++r) f.sched.spawn(participant(f, r));
  f.sched.run();
  EXPECT_TRUE(f.file->image().covers_exactly(6000));
}

TEST(MpiioFileTest, ListWithSyncAlgorithmCoversSameBytes) {
  Hints hints;
  hints.collective_algorithm = CollectiveAlgorithm::ListWithSync;
  Fixture f(4, hints);
  auto participant = [](Fixture& fx, mpi::Rank rank) -> Process {
    std::vector<Extent> extents;
    for (std::uint64_t k = rank; k < 16; k += 4)
      extents.push_back(Extent{k * 100, 100});
    co_await fx.file->write_at_all(rank, std::move(extents));
  };
  for (mpi::Rank r = 0; r < 4; ++r) f.sched.spawn(participant(f, r));
  f.sched.run();
  EXPECT_TRUE(f.file->image().covers_exactly(1600));
}

TEST(MpiioFileTest, CbNodesLimitsAggregators) {
  Hints hints;
  hints.cb_nodes = 1;
  Fixture f(4, hints);
  auto participant = [](Fixture& fx, mpi::Rank rank) -> Process {
    std::vector<Extent> extents{Extent{rank * 1000ull, 1000}};
    co_await fx.file->write_at_all(rank, std::move(extents));
  };
  for (mpi::Rank r = 0; r < 4; ++r) f.sched.spawn(participant(f, r));
  f.sched.run();
  EXPECT_TRUE(f.file->image().covers_exactly(4000));
  // With one aggregator only rank 0 writes: ranks 1-3 send nothing but
  // their 1000 exchange bytes.
  for (mpi::Rank r = 1; r < 4; ++r)
    EXPECT_EQ(f.network.counters(f.comm.endpoint_of(r)).bytes_sent, 1000u)
        << "rank " << r;
}

TEST(MpiioFileTest, NonParticipantRankRejected) {
  Fixture f(3, Hints{}, /*participants=*/{1, 2});
  auto prog = [](Fixture& fx) -> Process {
    co_await fx.file->write_at_all(0, {});
  };
  f.sched.spawn(prog(f));
  EXPECT_THROW(f.sched.run(), std::invalid_argument);
}

TEST(MpiioFileTest, SubsetParticipantsCollective) {
  Fixture f(4, Hints{}, /*participants=*/{1, 2, 3});
  auto participant = [](Fixture& fx, mpi::Rank rank) -> Process {
    std::vector<Extent> extents{Extent{(rank - 1) * 500ull, 500}};
    co_await fx.file->write_at_all(rank, std::move(extents));
  };
  for (mpi::Rank r = 1; r < 4; ++r) f.sched.spawn(participant(f, r));
  f.sched.run();
  EXPECT_TRUE(f.file->image().covers_exactly(1500));
}

TEST(MpiioFileTest, SmallCbBufferSplitsAggregatorWritesIntoRounds) {
  // 4 participants each contributing 4 KiB to a 16 KiB region.  With
  // cb_nodes=1 a single aggregator writes everything; shrinking
  // cb_buffer_size below its domain forces multiple write rounds, i.e.
  // more (but smaller) file-system requests.
  auto run_with_buffer = [](std::uint64_t buffer) {
    Hints hints;
    hints.cb_nodes = 1;
    hints.cb_buffer_size = buffer;
    hints.two_phase_round_overhead = 0;
    Fixture f(4, hints);
    auto participant = [](Fixture& fx, mpi::Rank rank) -> Process {
      std::vector<Extent> extents{Extent{rank * 4096ull, 4096}};
      co_await fx.file->write_at_all(rank, std::move(extents));
    };
    for (mpi::Rank r = 0; r < 4; ++r) f.sched.spawn(participant(f, r));
    f.sched.run();
    EXPECT_TRUE(f.file->image().covers_exactly(16384));
    return f.fs.aggregate_stats().requests;
  };
  const auto one_round = run_with_buffer(1 << 20);
  const auto many_rounds = run_with_buffer(2048);
  EXPECT_GT(many_rounds, one_round);
}

TEST(MpiioFileTest, TwoPhaseOverheadDelaysCollective) {
  auto run_with_overhead = [](s3asim::sim::Time overhead) {
    Hints hints;
    hints.two_phase_round_overhead = overhead;
    Fixture f(2, hints);
    auto participant = [](Fixture& fx, mpi::Rank rank) -> Process {
      std::vector<Extent> extents{Extent{rank * 1000ull, 1000}};
      co_await fx.file->write_at_all(rank, std::move(extents));
    };
    for (mpi::Rank r = 0; r < 2; ++r) f.sched.spawn(participant(f, r));
    f.sched.run();
    return f.sched.now();
  };
  const auto fast = run_with_overhead(0);
  const auto slow = run_with_overhead(s3asim::sim::milliseconds(50));
  EXPECT_GE(slow, fast + s3asim::sim::milliseconds(50));
}

}  // namespace
