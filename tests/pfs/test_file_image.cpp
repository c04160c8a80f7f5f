#include "pfs/file_image.hpp"

#include <gtest/gtest.h>

namespace {

using s3asim::pfs::Extent;
using s3asim::pfs::FileImage;

TEST(FileImageTest, EmptyImage) {
  FileImage image;
  EXPECT_EQ(image.bytes_written(), 0u);
  EXPECT_EQ(image.covered_bytes(), 0u);
  EXPECT_TRUE(image.covers_exactly(0));
  EXPECT_FALSE(image.covers_exactly(10));
}

TEST(FileImageTest, SingleWriteCoversItsRange) {
  FileImage image;
  image.record_write(0, 100);
  EXPECT_EQ(image.bytes_written(), 100u);
  EXPECT_EQ(image.covered_bytes(), 100u);
  EXPECT_TRUE(image.covers_exactly(100));
  EXPECT_EQ(image.overlap_count(), 0u);
}

TEST(FileImageTest, AdjacentWritesMergeWithoutOverlap) {
  FileImage image;
  image.record_write(0, 50);
  image.record_write(50, 50);
  EXPECT_EQ(image.overlap_count(), 0u);
  EXPECT_TRUE(image.covers_exactly(100));
}

TEST(FileImageTest, OutOfOrderWritesStillCover) {
  FileImage image;
  image.record_write(50, 50);
  image.record_write(0, 50);
  EXPECT_TRUE(image.covers_exactly(100));
}

TEST(FileImageTest, OverlapDetected) {
  FileImage image;
  image.record_write(0, 60);
  image.record_write(50, 50);
  EXPECT_GE(image.overlap_count(), 1u);
  EXPECT_FALSE(image.covers_exactly(100));
  EXPECT_EQ(image.covered_bytes(), 100u);
}

TEST(FileImageTest, ContainedOverlapDetected) {
  FileImage image;
  image.record_write(0, 100);
  image.record_write(20, 10);
  EXPECT_GE(image.overlap_count(), 1u);
}

TEST(FileImageTest, GapDetection) {
  FileImage image;
  image.record_write(0, 10);
  image.record_write(20, 10);
  const auto holes = image.gaps(40);
  ASSERT_EQ(holes.size(), 2u);
  EXPECT_EQ(holes[0], (Extent{10, 10}));
  EXPECT_EQ(holes[1], (Extent{30, 10}));
}

TEST(FileImageTest, NoGapsWhenFullyCovered) {
  FileImage image;
  image.record_write(0, 40);
  EXPECT_TRUE(image.gaps(40).empty());
}

TEST(FileImageTest, LeadingGap) {
  FileImage image;
  image.record_write(10, 30);
  const auto holes = image.gaps(40);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_EQ(holes[0], (Extent{0, 10}));
}

TEST(FileImageTest, ZeroLengthWriteIgnored) {
  FileImage image;
  image.record_write(5, 0);
  EXPECT_EQ(image.write_count(), 0u);
  EXPECT_EQ(image.covered_bytes(), 0u);
}

TEST(FileImageTest, ManyInterleavedWritersCoverExactly) {
  // Simulates the WW pattern: many writers, mutually exclusive interleaved
  // extents, arbitrary arrival order.
  FileImage image;
  constexpr std::uint64_t kPieces = 1000;
  constexpr std::uint64_t kSize = 37;
  for (std::uint64_t i = 0; i < kPieces; ++i) {
    const std::uint64_t piece = (i * 7919) % kPieces;  // permutation
    image.record_write(piece * kSize, kSize);
  }
  EXPECT_EQ(image.overlap_count(), 0u);
  EXPECT_TRUE(image.covers_exactly(kPieces * kSize));
}

TEST(FileImageTest, MergeAcrossManyIntervalsOnBigWrite) {
  FileImage image;
  for (std::uint64_t i = 0; i < 10; ++i) image.record_write(i * 20, 10);
  // One giant overlapping write spanning everything.
  image.record_write(0, 200);
  EXPECT_GE(image.overlap_count(), 1u);
  EXPECT_EQ(image.covered_bytes(), 200u);
}

}  // namespace
