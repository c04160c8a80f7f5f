#pragma once

/// \file file_image.hpp
/// Logical image of an output file: which byte ranges have been written.
/// This is the correctness oracle for every I/O strategy — the paper's
/// guarantee is that workers write to *mutually exclusive* locations, so
/// any overlap is a bug in the offset-list logic, and any gap is lost
/// output (which fault recovery repairs from `gaps`).
///
/// Hot-path design: writes land in a staged buffer and are folded into a
/// flat sorted interval vector in batches (one sort + linear union merge per
/// ~1k writes), instead of one `std::map` node allocation and tree rebalance
/// per write.  Coverage queries flush lazily, so recording stays O(1)
/// amortised with zero per-write allocation once the vectors have grown.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pfs/layout.hpp"

namespace s3asim::pfs {

class FileImage {
 public:
  /// Records a write.  Overlap with existing data is recorded (PVFS2 does
  /// not serialize or reject overlapping writes) but counted, so tests can
  /// assert `overlap_count() == 0`.
  void record_write(std::uint64_t offset, std::uint64_t length) {
    if (length == 0) return;
    ++write_count_;
    bytes_written_ += length;
    staged_.push_back(Interval{offset, offset + length});
    if (staged_.size() >= kFlushThreshold) flush();
  }

  /// Total bytes across all writes (overlapping bytes counted every time).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }

  /// Number of writes observed to overlap other written data.  Zero iff no
  /// write ever intersected another; the exact count of a pile-up is
  /// batch-order dependent.
  [[nodiscard]] std::uint64_t overlap_count() const noexcept {
    flush();
    return overlaps_;
  }

  /// Bytes covered by at least one write.
  [[nodiscard]] std::uint64_t covered_bytes() const noexcept {
    flush();
    return covered_;
  }

  /// True iff the union of writes is exactly [0, total) with no overlap.
  [[nodiscard]] bool covers_exactly(std::uint64_t total) const noexcept {
    flush();
    if (overlaps_ != 0) return false;
    if (total == 0) return intervals_.empty();
    return intervals_.size() == 1 && intervals_.front().begin == 0 &&
           intervals_.front().end == total;
  }

  /// Uncovered holes inside [0, total).
  [[nodiscard]] std::vector<Extent> gaps(std::uint64_t total) const {
    flush();
    std::vector<Extent> holes;
    std::uint64_t cursor = 0;
    for (const Interval& interval : intervals_) {
      if (interval.begin >= total) break;
      if (interval.begin > cursor)
        holes.push_back(Extent{cursor, interval.begin - cursor});
      cursor = std::max(cursor, interval.end);
    }
    if (cursor < total) holes.push_back(Extent{cursor, total - cursor});
    return holes;
  }

  [[nodiscard]] std::uint64_t write_count() const noexcept { return write_count_; }

 private:
  struct Interval {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  /// Staged writes folded into the flat store per batch.
  static constexpr std::size_t kFlushThreshold = 1024;

  /// Folds the staged writes into `intervals_` with one sort and a linear
  /// union merge.  Existing intervals are disjoint and non-adjacent, so any
  /// strict intersection seen during the sweep involves a staged write and
  /// bumps the overlap counter.
  void flush() const noexcept {
    if (staged_.empty()) return;
    std::sort(staged_.begin(), staged_.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
              });
    merge_buf_.clear();
    merge_buf_.reserve(intervals_.size() + staged_.size());
    covered_ = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    Interval current{};
    bool have_current = false;
    const auto emit = [this](const Interval& interval) {
      merge_buf_.push_back(interval);
      covered_ += interval.end - interval.begin;
    };
    while (i < intervals_.size() || j < staged_.size()) {
      Interval next{};
      if (j >= staged_.size() ||
          (i < intervals_.size() && intervals_[i].begin <= staged_[j].begin)) {
        next = intervals_[i++];
      } else {
        next = staged_[j++];
      }
      if (!have_current) {
        current = next;
        have_current = true;
        continue;
      }
      if (next.begin <= current.end) {
        if (next.begin < current.end) ++overlaps_;
        current.end = std::max(current.end, next.end);
      } else {
        emit(current);
        current = next;
      }
    }
    if (have_current) emit(current);
    intervals_.swap(merge_buf_);
    staged_.clear();
  }

  // Flat store (sorted, disjoint, adjacency-merged) plus the pending batch;
  // mutable so const coverage queries can flush lazily.
  mutable std::vector<Interval> intervals_;
  mutable std::vector<Interval> staged_;
  mutable std::vector<Interval> merge_buf_;
  mutable std::uint64_t overlaps_ = 0;
  mutable std::uint64_t covered_ = 0;
  std::uint64_t write_count_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace s3asim::pfs
