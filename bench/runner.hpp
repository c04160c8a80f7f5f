#pragma once

/// \file runner.hpp
/// The scenario runner behind `s3asim_bench`: every grid point is an
/// independent simulation, so a small pool of threads pulls point indices
/// from an atomic counter and stores each result in the slot its grid
/// position fixes.  Tables and CSVs read results in grid order, so a serial
/// run and a `--jobs N` run write byte-identical files.  Alongside its CSVs
/// each scenario writes `results/BENCH_<scenario>.json` with per-point
/// simulated seconds, host seconds, scheduler events per second and peak
/// RSS.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/stats.hpp"
#include "obs/metrics.hpp"

namespace s3asim::bench {

/// One grid point: a label for the JSON record and the config it runs.
struct Point {
  std::string label;
  core::SimConfig config;
};

/// A grid point's result, annotated with host-side measurements.
struct SweepResult {
  std::string label;
  core::RunStats stats;
  double host_seconds = 0.0;     ///< host wall-clock this point took
  std::int64_t peak_rss_kb = 0;  ///< process peak RSS when the point finished
};

/// Runs every point through `run_simulation` and `require_exact` on `jobs`
/// threads and returns the results in grid order.  The first exception in
/// grid order is rethrown after all threads join; points still queued are
/// abandoned.
[[nodiscard]] std::vector<SweepResult> run_sweep(const std::vector<Point>& grid,
                                                 unsigned jobs);

/// Aborts loudly unless the run's output file verified exactly.
void require_exact(const core::RunStats& stats);

/// Where bench output goes: `results/<name>`, or `$S3ASIM_RESULTS_DIR/<name>`
/// when that is set.  Creates the directory.
[[nodiscard]] std::string csv_path(const std::string& name);

/// One table of a scenario.  emit() writes exactly these cells to `csv`
/// under the results directory and prints them.
struct Table {
  Table(std::string heading, std::string file,
        std::vector<std::string> columns);

  std::string title;  ///< printed above the table; may be empty
  std::string csv;    ///< file name under the results directory
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Appends `label` followed by `values` at six decimals.
  void add(std::string label, const std::vector<double>& values);
};

/// Writes `table` to its CSV, prints it, and prints the path written.
void emit(const Table& table);

/// The worker-process phase breakdown of Figures 3, 4, 6 and 7: one row per
/// phase plus "overall", one column per run.
[[nodiscard]] Table phase_table(std::string title, std::string csv,
                                const std::vector<std::string>& x_values,
                                std::span<const core::RunStats> runs);

/// Runs one scenario's grids on the sweep pool and records every point for
/// its `BENCH_<scenario>.json`.
class Runner {
 public:
  Runner(std::string scenario, unsigned jobs);

  /// Runs `grid` (see run_sweep) and returns the stats in grid order.
  std::vector<core::RunStats> run(const std::vector<Point>& grid);

  /// Records a win gate.  A failed gate fails the program once every
  /// requested scenario has run.
  void gate(bool passed, std::string verdict);

  /// Writes `BENCH_<scenario>.json` if any point ran; returns its path, or
  /// an empty string.
  std::string write_json() const;

  [[nodiscard]] const std::vector<std::string>& failed_gates() const {
    return failed_gates_;
  }

  /// Snapshot of an observed run, embedded in the JSON when set.
  std::unique_ptr<obs::Registry> metrics;

 private:
  std::string scenario_;
  unsigned jobs_;
  std::vector<SweepResult> results_;
  double host_seconds_ = 0.0;
  std::vector<std::string> failed_gates_;
};

/// One row of the scenario table.
struct Scenario {
  const char* name;
  void (*run)(Runner&);
  const char* title;
};

/// The parsed command line `[--jobs N] [SCENARIO...]`.
struct Options {
  unsigned jobs = 1;
  /// Rows of the table given to parse_args; every row when none is named.
  std::vector<const Scenario*> scenarios;
};

/// Parses the command line against `table`.  Throws std::runtime_error,
/// naming the bad input, for an unknown flag, an unknown scenario, or a
/// missing or malformed `--jobs` value.
[[nodiscard]] Options parse_args(int argc, char** argv,
                                 std::span<const Scenario> table);

}  // namespace s3asim::bench
