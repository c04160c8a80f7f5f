#pragma once

/// \file layout.hpp
/// PVFS2-style round-robin striping.
///
/// A file is split into fixed-size strips distributed round-robin over N
/// I/O servers (the paper: 16 servers, 64 KiB strips ⇒ a 1 MiB stripe).
/// Each server stores its strips back-to-back in a local byte stream, so a
/// contiguous file extent maps to at most one contiguous region per server —
/// which is why contiguous I/O is so much cheaper than noncontiguous I/O.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/require.hpp"
#include "util/units.hpp"

namespace s3asim::pfs {

/// A contiguous byte range in the logical file.
struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  [[nodiscard]] std::uint64_t end() const noexcept { return offset + length; }
  friend bool operator==(const Extent&, const Extent&) = default;
};

/// A contiguous byte range in one server's local byte stream.
struct ServerPiece {
  std::uint32_t server = 0;
  std::uint64_t server_offset = 0;
  std::uint64_t length = 0;

  friend bool operator==(const ServerPiece&, const ServerPiece&) = default;
};

/// One server's share of an extent list: the OL pairs a list-I/O request
/// to it would carry (adjacent server-local ranges coalesced) and their
/// byte total — all a request's cost depends on.
struct ServerTally {
  std::uint64_t pairs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t end = 0;  ///< server-local end of the last pair
};

class Layout {
 public:
  Layout(std::uint64_t strip_size, std::uint32_t server_count)
      : strip_size_(strip_size), server_count_(server_count) {
    S3A_REQUIRE(strip_size >= 1);
    S3A_REQUIRE(server_count >= 1);
  }

  /// Paper defaults: 64 KiB strips, 16 servers (1 MiB full stripe).
  [[nodiscard]] static Layout paper_default() {
    return Layout(64 * util::KiB, 16);
  }

  [[nodiscard]] std::uint64_t strip_size() const noexcept { return strip_size_; }
  [[nodiscard]] std::uint32_t server_count() const noexcept { return server_count_; }
  [[nodiscard]] std::uint64_t stripe_size() const noexcept {
    return strip_size_ * server_count_;
  }

  /// The server holding the byte at `file_offset`.
  [[nodiscard]] std::uint32_t server_of(std::uint64_t file_offset) const noexcept {
    return static_cast<std::uint32_t>((file_offset / strip_size_) % server_count_);
  }

  /// The server-local offset of the byte at `file_offset`.
  [[nodiscard]] std::uint64_t server_offset_of(std::uint64_t file_offset) const noexcept {
    const std::uint64_t stripe = file_offset / stripe_size();
    return stripe * strip_size_ + file_offset % strip_size_;
  }

  /// Decomposes a file extent into per-server pieces, in file-offset order.
  /// Adjacent strips on the same server are coalesced (they are contiguous
  /// in the server's local stream when they belong to consecutive stripes).
  [[nodiscard]] std::vector<ServerPiece> map_extent(const Extent& extent) const {
    std::vector<ServerPiece> pieces;
    if (extent.length == 0) return pieces;
    std::uint64_t offset = extent.offset;
    std::uint64_t remaining = extent.length;
    while (remaining > 0) {
      const std::uint64_t in_strip = offset % strip_size_;
      const std::uint64_t chunk = std::min(remaining, strip_size_ - in_strip);
      const std::uint32_t server = server_of(offset);
      const std::uint64_t server_off = server_offset_of(offset);
      if (!pieces.empty() && pieces.back().server == server &&
          pieces.back().server_offset + pieces.back().length == server_off) {
        pieces.back().length += chunk;
      } else {
        pieces.push_back(ServerPiece{server, server_off, chunk});
      }
      offset += chunk;
      remaining -= chunk;
    }
    return pieces;
  }

  /// Maps many extents and groups the pieces per server, coalescing
  /// adjacent server-local ranges: `result[s]` is the OL (offset-length)
  /// list that a list-I/O request would carry to server `s`.
  [[nodiscard]] std::vector<std::vector<ServerPiece>> group_by_server(
      const std::vector<Extent>& extents) const {
    std::vector<std::vector<ServerPiece>> per_server(server_count_);
    for_each_piece(extents, [&](const ServerPiece& piece) {
      auto& list = per_server[piece.server];
      if (!list.empty() &&
          list.back().server_offset + list.back().length ==
              piece.server_offset) {
        list.back().length += piece.length;
      } else {
        list.push_back(piece);
      }
    });
    return per_server;
  }

  /// What `group_by_server` would give each server, counted instead of
  /// listed: `tally[s]` has the pair count and byte total of server `s`'s
  /// OL list.  `tally` is resized and reset; reusing it allocates nothing.
  void tally_by_server(std::span<const Extent> extents,
                       std::vector<ServerTally>& tally) const {
    tally.assign(server_count_, ServerTally{});
    for_each_piece(extents, [&](const ServerPiece& piece) {
      ServerTally& server = tally[piece.server];
      if (server.pairs == 0 || server.end != piece.server_offset)
        ++server.pairs;
      server.bytes += piece.length;
      server.end = piece.server_offset + piece.length;
    });
  }

 private:
  /// Calls `visit` with every strip-sized piece of `extents`, in order.
  template <class Visit>
  void for_each_piece(std::span<const Extent> extents, Visit&& visit) const {
    for (const Extent& extent : extents) {
      std::uint64_t offset = extent.offset;
      std::uint64_t remaining = extent.length;
      while (remaining > 0) {
        const std::uint64_t in_strip = offset % strip_size_;
        const std::uint64_t chunk = std::min(remaining, strip_size_ - in_strip);
        visit(ServerPiece{server_of(offset), server_offset_of(offset),
                          chunk});
        offset += chunk;
        remaining -= chunk;
      }
    }
  }

  std::uint64_t strip_size_;
  std::uint32_t server_count_;
};

}  // namespace s3asim::pfs
