#include "sim/frame_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace {

using namespace s3asim::sim;

TEST(FramePoolTest, ReusesFreedBlocksOfTheSameClass) {
  FramePool pool;
  void* first = pool.allocate(100);
  EXPECT_EQ(pool.live(), 1u);
  pool.deallocate(first, 100);
  EXPECT_EQ(pool.live(), 0u);
  // Any size in the same 64-byte class reuses the block.
  void* second = pool.allocate(128);
  EXPECT_EQ(second, first);
  EXPECT_EQ(pool.reused(), 1u);
  pool.deallocate(second, 128);
}

TEST(FramePoolTest, DifferentClassesDoNotShareBlocks) {
  FramePool pool;
  void* small = pool.allocate(64);
  pool.deallocate(small, 64);
  void* large = pool.allocate(1024);
  EXPECT_NE(large, small);
  EXPECT_EQ(pool.reused(), 0u);
  pool.deallocate(large, 1024);
}

TEST(FramePoolTest, OversizeRequestsFallThroughToOperatorNew) {
  FramePool pool;
  void* huge = pool.allocate(FramePool::kMaxPooled + 1);
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(pool.oversize_allocs(), 1u);
  EXPECT_EQ(pool.live(), 0u);  // oversize blocks are not pool-tracked
  std::memset(huge, 0xab, FramePool::kMaxPooled + 1);  // must be writable
  pool.deallocate(huge, FramePool::kMaxPooled + 1);
  EXPECT_EQ(pool.slab_bytes(), 0u);  // never touched a slab
}

TEST(FramePoolTest, BlocksKeepDefaultNewAlignment) {
  FramePool pool;
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t size : {1u, 63u, 64u, 65u, 200u, 4096u}) {
    void* ptr = pool.allocate(size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ptr) %
                  __STDCPP_DEFAULT_NEW_ALIGNMENT__,
              0u)
        << "size " << size;
    blocks.emplace_back(ptr, size);
  }
  for (auto [ptr, size] : blocks) pool.deallocate(ptr, size);
  EXPECT_EQ(pool.live(), 0u);
}

Task<int> pooled_child(Scheduler& sched, int depth) {
  if (depth == 0) {
    co_await sched.delay(1);
    co_return 1;
  }
  co_return 1 + co_await pooled_child(sched, depth - 1);
}

Process pooled_root(Scheduler& sched, int& result) {
  result = co_await pooled_child(sched, 16);
}

TEST(FramePoolTest, CoroutineFramesRoundTripThroughThePool) {
  // Run the same coroutine shape twice: the second run must be served from
  // free lists (frame reuse), and all frames must be returned when the
  // scheduler finishes.
  FramePool& pool = FramePool::local();
  const std::uint64_t live_before = pool.live();

  int result = 0;
  {
    Scheduler sched;
    sched.spawn(pooled_root(sched, result));
    sched.run();
  }
  EXPECT_EQ(result, 17);
  EXPECT_EQ(pool.live(), live_before);  // every frame freed

  const std::uint64_t reused_before = pool.reused();
  {
    Scheduler sched;
    sched.spawn(pooled_root(sched, result));
    sched.run();
  }
  EXPECT_EQ(pool.live(), live_before);
  EXPECT_GT(pool.reused(), reused_before);  // second run hit the free lists
}

}  // namespace
