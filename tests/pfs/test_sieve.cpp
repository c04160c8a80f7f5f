/// Data-sieving tests (pfs/sieve.hpp + the sieved Pfs client paths): the
/// window planner is checked against a per-byte brute-force reference over
/// randomized extent lists, and the simulated read/write paths are checked
/// for amplification accounting, read-modify-write hole protection, and
/// file-image equivalence with list I/O.

#include "pfs/sieve.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pfs/pfs.hpp"
#include "util/rng.hpp"

namespace {

using namespace s3asim;
using pfs::Extent;
using pfs::Pfs;
using pfs::PfsParams;
using pfs::SievePlan;
using pfs::SieveWindow;
using sim::Process;
using sim::Scheduler;

// ---- planner: brute-force reference ---------------------------------------

/// The per-byte reference: expand the extents into the sorted set of useful
/// bytes and replay the greedy rule one byte at a time — a window opens at
/// the first uncovered useful byte and takes every useful byte within
/// `buffer` of its start.
std::vector<SieveWindow> brute_force_windows(std::span<const Extent> extents,
                                             std::uint64_t buffer) {
  std::vector<std::uint64_t> bytes;
  for (const Extent& extent : extents)
    for (std::uint64_t b = 0; b < extent.length; ++b)
      bytes.push_back(extent.offset + b);
  std::sort(bytes.begin(), bytes.end());
  bytes.erase(std::unique(bytes.begin(), bytes.end()), bytes.end());

  std::vector<SieveWindow> windows;
  std::size_t i = 0;
  while (i < bytes.size()) {
    const std::uint64_t start = bytes[i];
    SieveWindow window;
    std::size_t j = i + 1;
    for (; j < bytes.size() && bytes[j] < start + buffer; ++j)
      if (bytes[j] != bytes[j - 1] + 1) ++window.holes;
    window.offset = start;
    window.length = bytes[j - 1] + 1 - start;
    window.useful_bytes = j - i;
    window.hole_bytes = window.length - window.useful_bytes;
    windows.push_back(window);
    i = j;
  }
  return windows;
}

void expect_plan_matches(std::span<const Extent> extents,
                         std::uint64_t buffer) {
  const SievePlan plan = pfs::plan_sieve(extents, buffer);
  const std::vector<SieveWindow> expected =
      brute_force_windows(extents, buffer);
  ASSERT_EQ(plan.windows.size(), expected.size()) << "buffer " << buffer;
  std::uint64_t useful = 0;
  std::uint64_t transferred = 0;
  std::uint64_t holes = 0;
  for (std::size_t w = 0; w < expected.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w) + " buffer " +
                 std::to_string(buffer));
    EXPECT_EQ(plan.windows[w].offset, expected[w].offset);
    EXPECT_EQ(plan.windows[w].length, expected[w].length);
    EXPECT_EQ(plan.windows[w].useful_bytes, expected[w].useful_bytes);
    EXPECT_EQ(plan.windows[w].hole_bytes, expected[w].hole_bytes);
    EXPECT_EQ(plan.windows[w].holes, expected[w].holes);
    EXPECT_LE(plan.windows[w].length, buffer);
    // Disjoint and ascending; adjacency happens when a run longer than
    // the buffer is split across consecutive windows.
    if (w > 0) {
      EXPECT_GE(plan.windows[w].offset, plan.windows[w - 1].end());
    }
    useful += expected[w].useful_bytes;
    transferred += expected[w].length;
    holes += expected[w].hole_bytes;
  }
  EXPECT_EQ(plan.useful_bytes, useful);
  EXPECT_EQ(plan.transferred_bytes, transferred);
  EXPECT_EQ(plan.hole_bytes, holes);
  EXPECT_EQ(plan.amplified_bytes(), transferred - useful);
}

TEST(SievePlanTest, MatchesPerByteBruteForceOnRandomExtentLists) {
  util::Xoshiro256 rng(20060627);
  const std::uint64_t buffers[] = {1, 7, 64, 300, 4096};
  for (std::size_t trial = 0; trial < 200; ++trial) {
    std::vector<Extent> extents;
    const std::size_t n = rng() % 12;
    for (std::size_t e = 0; e < n; ++e)
      extents.push_back({rng() % 2000, rng() % 120});  // empties included
    expect_plan_matches(extents, buffers[trial % std::size(buffers)]);
  }
}

TEST(SievePlanTest, CoalesceSortsMergesAndDropsEmpties) {
  const Extent input[] = {{500, 100}, {0, 50}, {40, 20}, {700, 0}, {560, 60}};
  const std::vector<Extent> merged = pfs::coalesce_extents(input);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].offset, 0u);
  EXPECT_EQ(merged[0].length, 60u);   // {0,50} + adjacent {40,20}
  EXPECT_EQ(merged[1].offset, 500u);
  EXPECT_EQ(merged[1].length, 120u);  // {500,100} + adjacent {560,60}
}

TEST(SievePlanTest, CoalesceKeepsAscendingInputAndMergesIt) {
  // Already ascending (equal offsets included), as fragment loads pass it:
  // no sort is needed and the merge is the same.
  const Extent input[] = {{0, 50},   {40, 20},  {60, 0},  {100, 10},
                          {100, 30}, {130, 10}, {200, 5}, {300, 0}};
  const std::vector<Extent> merged = pfs::coalesce_extents(input);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].offset, 0u);
  EXPECT_EQ(merged[0].length, 60u);   // {0,50} + overlapping {40,20}
  EXPECT_EQ(merged[1].offset, 100u);
  EXPECT_EQ(merged[1].length, 40u);   // {100,10}, {100,30}, adjacent {130,10}
  EXPECT_EQ(merged[2].offset, 200u);
  EXPECT_EQ(merged[2].length, 5u);
  std::vector<Extent> strided;  // App::fragment_extents' shape
  for (std::uint64_t i = 0; i < 1024; ++i) strided.push_back({i * 64, 16});
  EXPECT_EQ(pfs::coalesce_extents(strided), strided);
}

TEST(SievePlanTest, RunLongerThanBufferSplitsWithoutHoles) {
  const Extent one[] = {{100, 1000}};
  const SievePlan plan = pfs::plan_sieve(one, 256);
  ASSERT_EQ(plan.windows.size(), 4u);  // ceil(1000 / 256)
  for (const SieveWindow& window : plan.windows) {
    EXPECT_LE(window.length, 256u);
    EXPECT_EQ(window.holes, 0u);
    EXPECT_EQ(window.hole_bytes, 0u);
  }
  EXPECT_EQ(plan.useful_bytes, 1000u);
  EXPECT_EQ(plan.amplified_bytes(), 0u);
}

TEST(SievePlanTest, EmptyListYieldsEmptyPlan) {
  const SievePlan plan = pfs::plan_sieve({}, 4096);
  EXPECT_TRUE(plan.windows.empty());
  EXPECT_EQ(plan.useful_bytes, 0u);
  EXPECT_EQ(plan.transferred_bytes, 0u);
}

TEST(SievePlanTest, ZeroBufferIsRejected) {
  const Extent one[] = {{0, 10}};
  EXPECT_THROW((void)pfs::plan_sieve(one, 0), std::invalid_argument);
}

// ---- simulated client paths ------------------------------------------------

PfsParams sieve_params(std::uint32_t servers = 4, std::uint64_t strip = 1024) {
  PfsParams params;
  params.layout = pfs::Layout(strip, servers);
  params.disk = pfs::DiskModel::test_model();
  return params;
}

net::LinkParams fast_net() {
  net::LinkParams params;
  params.latency = 10;
  params.bandwidth_bps = 1e12;
  params.per_message_overhead = 0;
  return params;
}

struct Fixture {
  Scheduler sched;
  net::Network network;
  Pfs fs;
  explicit Fixture(PfsParams params = sieve_params())
      : network(sched, 2 + params.layout.server_count(), fast_net()),
        fs(sched, network, 2, params) {}
  ~Fixture() {
    fs.shutdown();
    sched.run();
  }

  [[nodiscard]] std::uint64_t total_server_read_bytes() const {
    std::uint64_t bytes = 0;
    for (std::uint32_t s = 0; s < fs.layout().server_count(); ++s)
      bytes += fs.server_stats(s).read_bytes;
    return bytes;
  }
  [[nodiscard]] std::uint64_t total_server_write_bytes() const {
    std::uint64_t bytes = 0;
    for (std::uint32_t s = 0; s < fs.layout().server_count(); ++s)
      bytes += fs.server_stats(s).bytes;
    return bytes;
  }
};

TEST(PfsSieveTest, SievedReadTransfersHolesButCountsOnlyUsefulBytes) {
  Fixture f;
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "db");
    const Extent extents[] = {{0, 100}, {200, 100}};
    co_await fx.fs.read_sieved(file, 0, extents, /*buffer_bytes=*/4096);
    EXPECT_EQ(fx.fs.bytes_read(file), 200u);  // the caller's view
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  // One window [0, 300): the 100-byte hole travels over the wire.
  EXPECT_EQ(f.total_server_read_bytes(), 300u);
  const pfs::SieveStats& stats = f.fs.sieve_stats();
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.read_useful_bytes, 200u);
  EXPECT_EQ(stats.read_transferred_bytes, 300u);
  EXPECT_EQ(stats.read_amplified_bytes(), 100u);
  EXPECT_EQ(stats.rmw_reads, 0u);
}

TEST(PfsSieveTest, SievedWriteProtectsHolesWithRmwPreRead) {
  Fixture f;
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    const Extent extents[] = {{0, 100}, {200, 100}};
    co_await fx.fs.write_sieved(file, 0, extents, /*buffer_bytes=*/4096);
    // Only the requested extents land in the image — the hole stays
    // uncovered even though its bytes were rewritten.
    EXPECT_EQ(fx.fs.image(file).covered_bytes(), 200u);
    EXPECT_EQ(fx.fs.image(file).write_count(), 2u);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  const pfs::SieveStats& stats = f.fs.sieve_stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.rmw_reads, 1u);
  EXPECT_EQ(stats.holes_protected, 1u);
  EXPECT_EQ(stats.write_useful_bytes, 200u);
  EXPECT_EQ(stats.write_transferred_bytes, 300u);
  // RMW = the whole window read back, then written: 300 bytes each way.
  EXPECT_EQ(f.total_server_read_bytes(), 300u);
  EXPECT_EQ(f.total_server_write_bytes(), 300u);
}

TEST(PfsSieveTest, DenseSievedWriteSkipsRmw) {
  Fixture f;
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "out");
    const Extent extents[] = {{0, 100}, {100, 200}};  // adjacent: no hole
    co_await fx.fs.write_sieved(file, 0, extents, /*buffer_bytes=*/4096);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  const pfs::SieveStats& stats = f.fs.sieve_stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.rmw_reads, 0u);
  EXPECT_EQ(stats.holes_protected, 0u);
  EXPECT_EQ(f.total_server_read_bytes(), 0u);
}

TEST(PfsSieveTest, SievedWriteImageMatchesListWrite) {
  const Extent extents[] = {{16, 48}, {128, 64}, {1000, 500}};
  auto run = [&](bool sieved) {
    Fixture f;
    auto prog = [&](Fixture& fx) -> Process {
      const auto file = co_await fx.fs.create_file(0, "out");
      std::vector<Extent> list(std::begin(extents), std::end(extents));
      if (sieved)
        co_await fx.fs.write_sieved(file, 0, list, /*buffer_bytes=*/256);
      else
        co_await fx.fs.write_list(file, 0, list);
      EXPECT_EQ(fx.fs.image(file).covered_bytes(), 48u + 64u + 500u);
      EXPECT_EQ(fx.fs.image(file).overlap_count(), 0u);
    };
    f.sched.spawn(prog(f));
    f.sched.run();
  };
  run(false);
  run(true);
}

TEST(PfsSieveTest, ReadListCountsPairsPerServer) {
  Fixture f;
  auto prog = [](Fixture& fx) -> Process {
    const auto file = co_await fx.fs.create_file(0, "db");
    const Extent extents[] = {{0, 100}, {200, 100}, {1024, 50}};
    co_await fx.fs.read_list(file, 0, extents);
    EXPECT_EQ(fx.fs.bytes_read(file), 250u);
  };
  f.sched.spawn(prog(f));
  f.sched.run();
  // Strip 1024 over 4 servers: two extents on server 0, one on server 1 —
  // one list request each, pairs preserved.
  EXPECT_EQ(f.fs.server_stats(0).reads, 1u);
  EXPECT_EQ(f.fs.server_stats(0).read_pairs, 2u);
  EXPECT_EQ(f.fs.server_stats(1).reads, 1u);
  EXPECT_EQ(f.fs.server_stats(1).read_pairs, 1u);
  EXPECT_FALSE(f.fs.sieve_stats().used());
}

}  // namespace
