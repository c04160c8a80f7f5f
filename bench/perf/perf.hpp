#pragma once

/// \file perf.hpp
/// Shared pieces of the `perf_suite` host-time benchmark (README.md in this
/// directory has the metric catalog and the method): the workload table,
/// the harness's own span log, and the layer probes that turn exact
/// per-pass counts into per-layer host self time.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace s3asim::perf {

using Clock = std::chrono::steady_clock;

/// One simulation of a workload pass.
struct PerfConfig {
  std::string label;
  core::SimConfig config;
};

/// The configs of workload `name`, in pass order.  Config i runs workload
/// seed `seed` + i; nothing else is taken from outside.  Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] std::vector<PerfConfig> workload_configs(const std::string& name,
                                                       std::uint64_t seed);

/// The harness's own spans (never the simulator's): name, start, end,
/// parent and run id, kept in memory and written as Chrome-trace JSON.
class SpanLog {
 public:
  /// Closes its span when destroyed.  Spans nest: the innermost open span
  /// is the parent of the next one opened.
  class Scope {
   public:
    Scope(SpanLog& log, std::size_t index) noexcept
        : log_(&log), index_(index) {}
    ~Scope() { log_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_;
  };

  [[nodiscard]] Scope open(std::string name, std::uint64_t run = 0);

  /// Number of recorded spans whose name starts with `prefix`.
  [[nodiscard]] std::size_t count(const std::string& prefix) const;

  /// Writes `{"traceEvents":[...]}` ("X" slices, microseconds); throws
  /// std::runtime_error when the file cannot be written.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;
    std::uint64_t run = 0;
  };
  void close(std::size_t index) noexcept;

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Exact counts of one pass (every config once), taken from the traced
/// registry, the traced log and `RunStats`.
struct PassCounts {
  std::uint64_t events = 0;          ///< scheduler resumptions
  std::uint64_t transfers = 0;       ///< Network::transfer calls
  std::uint64_t transfer_bytes = 0;  ///< bytes moved by those transfers
  std::uint64_t messages = 0;        ///< Comm point-to-point messages
  std::uint64_t message_bytes = 0;   ///< bytes carried by those messages
  std::uint64_t requests = 0;        ///< PFS server requests (w+r+sync)
  std::uint64_t pairs = 0;           ///< PFS OL pairs (write+read)
  std::uint64_t extents = 0;         ///< extents given to File::write_at_all
  std::uint64_t block_ops = 0;       ///< client-cache block hits + misses
  std::uint64_t block_hits = 0;
  std::uint64_t windows = 0;         ///< data-sieving windows (read+write)
  std::uint64_t sieve_useful = 0;    ///< sieve bytes asked for
  std::uint64_t sieve_moved = 0;     ///< sieve bytes transferred
  std::uint64_t results = 0;         ///< WorkloadModel results generated
};

/// Host nanoseconds per call of each layer, self time only.
struct LayerCosts {
  double sim_ns_per_event = 0.0;
  double net_ns_per_transfer = 0.0;
  double mpi_ns_per_message = 0.0;
  double pfs_ns_per_request = 0.0;
  double mpiio_ns_per_extent = 0.0;
  double cache_ns_per_block_op = 0.0;
  double sieve_ns_per_window = 0.0;
  double workload_ns_per_result = 0.0;
};

/// Drives each layer's public API on a fresh scheduler at the shape of
/// `configs` and subtracts what the probes of the layers beneath predict.
/// `scale` (0, 1] shrinks every probe (smoke runs).  Each probe runs three
/// times and keeps the median; a probe over pfs runs its pfs calibration
/// back to back with each measured run.  One span per probe and per call
/// loop.
[[nodiscard]] LayerCosts run_probes(const std::vector<PerfConfig>& configs,
                                    const PassCounts& counts, double scale,
                                    SpanLog& spans);

}  // namespace s3asim::perf
