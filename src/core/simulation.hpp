#pragma once

/// \file simulation.hpp
/// The S3aSim application: master (Algorithm 1) + workers (Algorithm 2)
/// over the simulated MPI / MPI-IO / PVFS2 stack, for any of the I/O
/// strategies of §2.  `run_simulation` executes one full run and returns
/// the per-phase statistics the paper's figures are built from.

#include "core/config.hpp"
#include "core/stats.hpp"
#include "core/workload.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"

namespace s3asim::core {

/// Observability sinks for one run; both optional and host-side only —
/// attaching them never perturbs simulated time or event order, so traced/
/// metered runs produce bit-identical results (DESIGN.md §8).
///
///  * `trace_log` — phase intervals, PFS request spans, MPI flow events,
///    fault/retirement markers (export: CSV, Gantt, Chrome trace JSON).
///  * `metrics`   — the dotted-name registry every layer publishes into
///    (live service-time/message histograms + end-of-run aggregates; see
///    docs/OBSERVABILITY.md for the catalog).
struct Observability {
  trace::TraceLog* trace_log = nullptr;
  obs::Registry* metrics = nullptr;

  [[nodiscard]] bool enabled() const noexcept {
    return trace_log != nullptr || metrics != nullptr;
  }
};

/// Runs one simulation to completion: a single master/worker group, or
/// `config.groups` of them (§5's hybrid query/database segmentation).  A
/// planned crash (`config.fault.crash_at`) restarts from the last flushed
/// query batch (§2) with a clean fault plan; the result is the statistics
/// of the resumed tail (of the crash-free replay when no tail ran) plus
/// the `resume` block.
///
/// Throws std::invalid_argument, naming the offending key, for every
/// combination the driver does not support (validated before any
/// simulated work).
///
/// Invariants verified on return (see DESIGN.md §5):
///  * the output file is covered exactly [0, total) with zero overlap
///    (reported in RunStats; asserted by callers/tests);
///  * per-rank phase times sum to that rank's wall time.
///
/// If `trace_log` is non-null, every phase interval of every rank is
/// recorded.
[[nodiscard]] RunStats run_simulation(const SimConfig& config,
                                      trace::TraceLog* trace_log = nullptr);

/// As above, with full observability sinks (trace + metrics registry).  A
/// crash run's counters accumulate across the crash-free replay and the
/// resumed tail; the tail's phase intervals stay out of the trace.
[[nodiscard]] RunStats run_simulation(const SimConfig& config,
                                      const Observability& observe);

}  // namespace s3asim::core
