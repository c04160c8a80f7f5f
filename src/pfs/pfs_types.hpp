#pragma once

/// \file pfs_types.hpp
/// Parameter and counter types of the simulated PFS, split out of pfs.hpp
/// so the cache layer (cache.hpp) and the server machinery share one
/// definition of `PfsParams`/`ServerStats` without a circular include.

#include <cstdint>
#include <vector>

#include "pfs/cache.hpp"
#include "pfs/disk.hpp"
#include "pfs/layout.hpp"
#include "sim/time.hpp"

namespace s3asim::pfs {

/// Server-side fault injection: from `from` onwards the server's per-request
/// service time is multiplied by `service_factor` (a failing disk, a
/// rebuilding RAID set), and the first request serviced at or after `from`
/// additionally waits out a one-shot `stall` (a controller reset).  The
/// fault module translates `FaultPlan` entries into these.
struct ServerDegradation {
  std::uint32_t server = 0;
  sim::Time from = 0;
  double service_factor = 1.0;
  sim::Time stall = 0;
};

struct PfsParams {
  Layout layout = Layout::paper_default();
  DiskModel disk{};
  /// Cost of a metadata operation at the metadata server (create/open,
  /// lease grant/release).
  sim::Time metadata_op = sim::microseconds(120);
  /// Wire size of a request envelope and of each OL pair within it.
  std::uint64_t request_header_bytes = 64;
  std::uint64_t pair_header_bytes = 16;
  /// Wire size of a server acknowledgement.
  std::uint64_t ack_bytes = 32;
  /// Injected server degradations (empty = healthy file system).
  std::vector<ServerDegradation> degradations;
  /// Client-side write-back cache + byte-range lease tokens (cache.hpp).
  /// Disabled by default (capacity 0): every client path ships extents
  /// straight to the servers.
  CacheParams cache{};
};

/// Per-server activity counters.
///
/// `busy` is disk-queue service occupancy only — the time the server's
/// service loop spent working requests (plus fault stalls).  Metadata
/// operations (create/open, lease traffic) never ride in `busy`: they are
/// modeled as a latency at the metadata server and accounted separately in
/// `metadata_ops`/`metadata_busy` on server 0, so cache token traffic is
/// attributable without perturbing the disk-occupancy figures.
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t pairs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t syncs = 0;
  std::uint64_t reads = 0;
  std::uint64_t read_pairs = 0;
  std::uint64_t read_bytes = 0;
  sim::Time busy = 0;
  /// Metadata-service counters — nonzero only on server 0, which doubles
  /// as the metadata server (create/open and cache lease round trips).
  std::uint64_t metadata_ops = 0;
  sim::Time metadata_busy = 0;

  /// Field-wise accumulation — `Pfs::aggregate_stats` sums through this, so
  /// a counter added here is automatically part of the aggregate.
  ServerStats& operator+=(const ServerStats& other) noexcept {
    requests += other.requests;
    pairs += other.pairs;
    bytes += other.bytes;
    syncs += other.syncs;
    reads += other.reads;
    read_pairs += other.read_pairs;
    read_bytes += other.read_bytes;
    busy += other.busy;
    metadata_ops += other.metadata_ops;
    metadata_busy += other.metadata_busy;
    return *this;
  }
};

/// Per-request observability hook: `on_request_serviced` fires once per
/// serviced server request, after its service interval elapsed.  `kind` is
/// 'w' (write), 'r' (read), or 's' (sync); `[start, end)` is the service
/// interval in simulated time.  Implemented by the core observer bridge
/// (trace spans + service-time histograms); the PFS itself stays free of
/// trace/metrics dependencies, and with no observer attached the service
/// path is unchanged.
class RequestObserver {
 public:
  virtual ~RequestObserver() = default;
  virtual void on_request_serviced(std::uint32_t server, char kind,
                                   std::uint64_t pairs, std::uint64_t bytes,
                                   sim::Time start, sim::Time end) = 0;
};

}  // namespace s3asim::pfs
