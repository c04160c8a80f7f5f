#pragma once

/// \file frame_pool.hpp
/// Slab allocator for coroutine frames and spawned steps.
///
/// Every simulated operation above the wire (a file write, a fan-out, a
/// worker's loop) is a `Task` or `Process` coroutine, and every spawned
/// wire operation (a PFS round trip of a fan-out, a posted MPI delivery, a
/// two-phase exchange send) is a `Step` in a block of its own, so block
/// allocation sits on the hot path of the DES kernel.  An awaited wire
/// operation allocates nothing: its step lives in the awaiting frame.
/// The pool replaces per-block `malloc`/`free` with size-class free lists
/// carved from large slabs: a hit is a pointer pop, a release is a pointer
/// push, and slab memory is retained for reuse until thread exit.
///
/// The pool is *thread-local*: a scheduler runs on exactly one thread, and a
/// simulation allocates and frees all of its blocks on that thread, so no
/// synchronization is needed — which is what keeps concurrent sweep workers
/// (bench::run_sweep) scalable.  Blocks must be freed on the thread that
/// allocated them; the single-threaded `Scheduler` guarantees this.
///
/// Under AddressSanitizer a freed block is poisoned past its free-list link
/// and unpoisoned when reused, so a step that touches itself (or the frame
/// it lives in) after its last act fails the sanitized build at once.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define S3ASIM_FRAME_POOL_POISONS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define S3ASIM_FRAME_POOL_POISONS 1
#endif
#endif
#ifdef S3ASIM_FRAME_POOL_POISONS
#include <sanitizer/asan_interface.h>
#endif

namespace s3asim::sim {

class FramePool {
 public:
  /// Free-list granularity: requests are rounded up to 64-byte classes, so
  /// a freed frame is reusable by any coroutine of the same class.
  static constexpr std::size_t kGranularity = 64;
  /// Requests above this fall through to `operator new` (rare: only very
  /// large frames, e.g. coroutines with big inline arrays).
  static constexpr std::size_t kMaxPooled = 4096;
  /// Slab size carved into blocks on demand.
  static constexpr std::size_t kSlabBytes = 256 * 1024;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    for (std::byte* slab : slabs_) ::operator delete[](slab);
  }

  /// The calling thread's pool.  Created on first use, destroyed (slabs
  /// released) at thread exit.
  static FramePool& local() noexcept {
    static thread_local FramePool pool;
    return pool;
  }

  void* allocate(std::size_t size) {
    if (size > kMaxPooled) {
      ++oversize_allocs_;
      return ::operator new(size);
    }
    const std::size_t klass = class_of(size);
    ++live_;
    ++allocations_;
    if (FreeBlock* block = free_[klass]) {
      free_[klass] = block->next;
      ++reused_;
#ifdef S3ASIM_FRAME_POOL_POISONS
      ASAN_UNPOISON_MEMORY_REGION(block, block_bytes(klass));
#endif
      return block;
    }
    return carve(block_bytes(klass));
  }

  void deallocate(void* ptr, std::size_t size) noexcept {
    if (size > kMaxPooled) {
      ::operator delete(ptr);
      return;
    }
    const std::size_t klass = class_of(size);
    auto* block = static_cast<FreeBlock*>(ptr);
    block->next = free_[klass];
    free_[klass] = block;
    --live_;
#ifdef S3ASIM_FRAME_POOL_POISONS
    ASAN_POISON_MEMORY_REGION(block + 1,
                              block_bytes(klass) - sizeof(FreeBlock));
#endif
  }

  /// Pooled blocks currently handed out (0 when all frames are destroyed).
  [[nodiscard]] std::uint64_t live() const noexcept { return live_; }
  /// Total pooled allocations served (reused + fresh); with `reused()`
  /// this gives the pool hit rate.
  [[nodiscard]] std::uint64_t allocations() const noexcept {
    return allocations_;
  }
  /// Allocations served from a free list rather than fresh slab space.
  [[nodiscard]] std::uint64_t reused() const noexcept { return reused_; }
  /// Allocations too large to pool (fell through to operator new).
  [[nodiscard]] std::uint64_t oversize_allocs() const noexcept {
    return oversize_allocs_;
  }
  /// Slab memory retained by the pool.
  [[nodiscard]] std::size_t slab_bytes() const noexcept {
    return slabs_.size() * kSlabBytes;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static constexpr std::size_t kClasses = kMaxPooled / kGranularity;

  [[nodiscard]] static constexpr std::size_t class_of(
      std::size_t size) noexcept {
    // size 0..64 -> class 0, 65..128 -> class 1, ...
    return size == 0 ? 0 : (size - 1) / kGranularity;
  }
  [[nodiscard]] static constexpr std::size_t block_bytes(
      std::size_t klass) noexcept {
    return (klass + 1) * kGranularity;
  }

  void* carve(std::size_t block_bytes) {
    if (static_cast<std::size_t>(bump_end_ - bump_) < block_bytes) {
      // `new std::byte[...]` is aligned to __STDCPP_DEFAULT_NEW_ALIGNMENT__,
      // and blocks are multiples of 64 bytes, so every block keeps the
      // default-new alignment coroutine frames require.
      auto* slab = static_cast<std::byte*>(::operator new[](kSlabBytes));
      slabs_.push_back(slab);
      bump_ = slab;
      bump_end_ = slab + kSlabBytes;
    }
    std::byte* block = bump_;
    bump_ += block_bytes;
    return block;
  }

  FreeBlock* free_[kClasses] = {};
  std::vector<std::byte*> slabs_;
  std::byte* bump_ = nullptr;
  std::byte* bump_end_ = nullptr;
  std::uint64_t live_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t oversize_allocs_ = 0;
};

/// Base class wiring a type's `new`/`delete` into the pool.
/// `Process::promise_type` and `Task<T>::promise_type` inherit from this,
/// so the compiler routes frame new/delete through these operators, and so
/// do the steps that are spawned on their own (the sized delete receives
/// the exact size, so no per-block header is needed).
struct PoolAllocated {
  static void* operator new(std::size_t size) {
    return FramePool::local().allocate(size);
  }
  static void operator delete(void* ptr, std::size_t size) noexcept {
    FramePool::local().deallocate(ptr, size);
  }
};

}  // namespace s3asim::sim
