// Property tests: the flat interval-vector FileImage against a brute-force
// byte-bitmap reference, under random overlapping/adjacent write streams.
// The bitmap is the obvious-by-inspection model — one byte per file byte,
// counting touches — so agreement on coverage, gaps, overlap zero-ness and
// covers_exactly across thousands of randomized writes pins the batched
// merge logic (including flush-threshold crossings).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "pfs/file_image.hpp"

namespace {

using s3asim::pfs::Extent;
using s3asim::pfs::FileImage;

/// Brute-force reference: per-byte touch counts over a small file.
class ByteBitmap {
 public:
  explicit ByteBitmap(std::uint64_t total) : touches_(total, 0) {}

  void record(std::uint64_t offset, std::uint64_t length) {
    if (length == 0) return;
    const auto first = touches_.begin() + static_cast<std::ptrdiff_t>(offset);
    const auto last = first + static_cast<std::ptrdiff_t>(length);
    any_overlap_ = any_overlap_ ||
                   std::any_of(first, last,
                               [](std::uint32_t c) { return c > 0; });
    for (std::uint64_t b = offset; b < offset + length; ++b) ++touches_[b];
  }

  [[nodiscard]] bool any_overlap() const { return any_overlap_; }

  [[nodiscard]] std::uint64_t covered_bytes() const {
    return static_cast<std::uint64_t>(
        std::count_if(touches_.begin(), touches_.end(),
                      [](std::uint32_t c) { return c > 0; }));
  }

  [[nodiscard]] std::vector<Extent> gaps(std::uint64_t total) const {
    std::vector<Extent> holes;
    std::uint64_t b = 0;
    while (b < total) {
      if (touches_[b] != 0) {
        ++b;
        continue;
      }
      const std::uint64_t start = b;
      while (b < total && touches_[b] == 0) ++b;
      holes.push_back(Extent{start, b - start});
    }
    return holes;
  }

  [[nodiscard]] bool covers_exactly(std::uint64_t total) const {
    return !any_overlap_ && covered_bytes() == total;
  }

 private:
  std::vector<std::uint32_t> touches_;
  bool any_overlap_ = false;
};

struct Shape {
  std::uint64_t file_bytes;
  std::uint64_t max_write;
  int writes;
  std::uint32_t seed;
};

void check_against_bitmap(const Shape& shape, FileImage& image) {
  ByteBitmap reference(shape.file_bytes);
  std::mt19937 rng(shape.seed);
  std::uniform_int_distribution<std::uint64_t> offset_dist(0, shape.file_bytes - 1);
  std::uniform_int_distribution<std::uint64_t> length_dist(0, shape.max_write);
  for (int i = 0; i < shape.writes; ++i) {
    const std::uint64_t offset = offset_dist(rng);
    const std::uint64_t length =
        std::min(length_dist(rng), shape.file_bytes - offset);
    image.record_write(offset, length);
    reference.record(offset, length);
  }
  // Overlap *zero-ness* is the contract (the exact count of a pile-up is
  // batch-order dependent); coverage and gaps must agree exactly.
  EXPECT_EQ(image.overlap_count() == 0, !reference.any_overlap());
  EXPECT_EQ(image.covered_bytes(), reference.covered_bytes());
  EXPECT_EQ(image.gaps(shape.file_bytes), reference.gaps(shape.file_bytes));
  EXPECT_EQ(image.covers_exactly(shape.file_bytes),
            reference.covers_exactly(shape.file_bytes));
}

TEST(FileImagePropertyTest, SparseRandomWritesMatchBitmap) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    FileImage image;
    check_against_bitmap(Shape{1 << 16, 512, 200, seed}, image);
  }
}

TEST(FileImagePropertyTest, DenseOverlappingWritesMatchBitmap) {
  for (std::uint32_t seed = 100; seed <= 104; ++seed) {
    SCOPED_TRACE(seed);
    FileImage image;
    check_against_bitmap(Shape{4096, 256, 500, seed}, image);
  }
}

TEST(FileImagePropertyTest, FlushThresholdCrossingMatchesBitmap) {
  // More writes than the staged-batch threshold (1024), so the run exercises
  // multiple sort+merge folds plus queries landing mid-batch.
  for (std::uint32_t seed = 7; seed <= 9; ++seed) {
    SCOPED_TRACE(seed);
    FileImage image;
    check_against_bitmap(Shape{1 << 15, 64, 5000, seed}, image);
    // Zero-length draws are skipped and not counted; what remains still
    // crosses the threshold.
    EXPECT_GT(image.write_count(), 1024u);
  }
}

TEST(FileImagePropertyTest, DisjointTilingNeverReportsOverlap) {
  // Mutually exclusive interleaved extents in a random order — the paper's
  // worker-write invariant.  Exact cover, zero overlap, no gaps.
  std::mt19937 rng(42);
  constexpr std::uint64_t kPieces = 3000;  // crosses the flush threshold
  constexpr std::uint64_t kSize = 17;
  std::vector<std::uint64_t> order(kPieces);
  for (std::uint64_t i = 0; i < kPieces; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  FileImage image;
  for (const std::uint64_t piece : order)
    image.record_write(piece * kSize, kSize);
  EXPECT_EQ(image.overlap_count(), 0u);
  EXPECT_EQ(image.covered_bytes(), kPieces * kSize);
  EXPECT_TRUE(image.covers_exactly(kPieces * kSize));
  EXPECT_TRUE(image.gaps(kPieces * kSize).empty());
}

}  // namespace
