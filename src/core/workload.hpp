#pragma once

/// \file workload.hpp
/// Deterministic pseudo-random workload generation.
///
/// Every quantity is derived from (seed, query) via forked RNG streams, so
/// the result set — counts, sizes, scores, fragment assignment, and hence
/// the entire output-file layout — is identical for every strategy and
/// process count (paper §3.3: "Although we use different numbers of
/// processors, the results are always identical since they are
/// pseudo-randomly generated").
///
/// Each query is drawn once, into a summary (sizes per fragment) and, only
/// when the model builds layouts, a layout (per-result file order and
/// offsets).  Worker-writing runs need layouts for their offset lists;
/// master-writing runs need summaries only (DESIGN.md §7).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "util/rng.hpp"

namespace s3asim::core {

/// One search result (HSP report) of a query.
struct ResultInfo {
  std::uint64_t score = 0;     ///< similarity score; file order is descending
  std::uint64_t bytes = 0;     ///< formatted output size
  std::uint32_t fragment = 0;  ///< database fragment that produced it
};

/// What a query's sizes alone decide: its length, its region size and,
/// per database fragment, how many results the fragment produced and
/// their bytes.  Every reader that never places a single result reads only
/// this: region bases, the master's merge and region writes, serving
/// admission, the workers' compute time and score messages.
struct QuerySummary {
  std::uint64_t query_length = 0;
  std::uint64_t total_bytes = 0;   ///< region size
  std::uint32_t result_count = 0;
  std::vector<std::uint32_t> fragment_results;  ///< result count per fragment
  std::vector<std::uint64_t> fragment_bytes;    ///< result bytes per fragment
};

/// A query's layout: its summary plus where each result goes, in final
/// (descending-score) order.  Only the worker-writing strategies' offset
/// lists read it.
struct QueryWorkload : QuerySummary {
  std::vector<ResultInfo> results;        ///< sorted by descending score
  std::vector<std::uint64_t> offsets;     ///< region-relative offset per result
  /// Fragment rows in compressed sparse row form: fragment f's result
  /// indices are fragment_index[fragment_start[f], fragment_start[f + 1]),
  /// ascending.
  std::vector<std::uint32_t> fragment_start;  ///< fragment_count + 1 entries
  std::vector<std::uint32_t> fragment_index;  ///< one entry per result

  /// Indices of the results that fragment `fragment` produced, ascending.
  [[nodiscard]] std::span<const std::uint32_t> by_fragment(
      std::uint32_t fragment) const {
    return {fragment_index.data() + fragment_start[fragment],
            fragment_start[fragment + 1] - fragment_start[fragment]};
  }
};

/// File order of results drawn with these scores: the draw indices by
/// descending score, ties by ascending index — the order a stable sort by
/// descending score gives.  Buckets inline (score, index) keys on the
/// scores' top bits and sorts each bucket, so uniformly drawn scores take
/// expected linear time and no input takes more than O(n log n).
[[nodiscard]] std::vector<std::uint32_t> score_order(
    std::span<const std::uint64_t> scores);

class WorkloadModel {
 public:
  /// A model with `build_layouts` false draws each query's summary only;
  /// asking it for a layout (`query`) is an error.
  explicit WorkloadModel(WorkloadConfig config, bool build_layouts = true);

  [[nodiscard]] const WorkloadConfig& config() const noexcept { return config_; }

  /// The (cached) sizes of one query.
  [[nodiscard]] const QuerySummary& summary(std::uint32_t q) const;

  /// The (cached) layout of one query; requires a layout-building model.
  [[nodiscard]] const QueryWorkload& query(std::uint32_t q) const;

  /// Absolute file offset of query q's region (sum of earlier regions).
  [[nodiscard]] std::uint64_t region_base(std::uint32_t q) const;

  /// Size of the whole output file.
  [[nodiscard]] std::uint64_t total_output_bytes() const;

  /// Total result count over all queries.
  [[nodiscard]] std::uint64_t total_result_count() const;

  /// Result bytes produced by searching (q, fragment) — drives compute time.
  [[nodiscard]] std::uint64_t fragment_result_bytes(std::uint32_t q,
                                                    std::uint32_t fragment) const;

 private:
  /// Draws query q once, filling its summary and, when the model builds
  /// layouts, its layout in the same pass.
  const QueryWorkload& generate(std::uint32_t q) const;

  WorkloadConfig config_;
  bool build_layouts_;
  mutable std::vector<std::unique_ptr<QueryWorkload>> cache_;
  mutable std::vector<std::uint64_t> region_base_cache_;
};

}  // namespace s3asim::core
