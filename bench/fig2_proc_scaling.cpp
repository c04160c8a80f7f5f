/// Figure 2 — "Results when scaling up the number of processors with
/// no-sync/sync query options": overall execution time of MW, WW-POSIX,
/// WW-List, WW-Coll over 2–96 processes, both query-sync modes, plus the
/// §4 headline ratios at 96 processes.
///
/// --scale-out replaces the paper's 2–96 grid with all eight strategies at
/// 1024 and 4096 simulated ranks on the same model and workload, against
/// the same fixed 16-server I/O subsystem; the fragment count grows to
/// nprocs − 1 so every worker searches.  The resulting strategy-survival
/// table (EXPERIMENTS.md, Ablation M) shows which strategies' makespans
/// hold as the compute side grows 40x beyond the largest cluster the paper
/// measured.  Like the default grid it runs through the sweep harness, so
/// `--jobs N` parallelizes it without changing a byte of its CSV.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/simulation.hpp"
#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace s3asim;
using namespace s3asim::bench;

namespace {

int run_scale_out(unsigned jobs) {
  const std::uint32_t ranks[] = {1024, 4096};
  const core::SimConfig base = core::paper_config();

  std::printf(
      "S3aSim Figure 2 (--scale-out): simulated makespan at 1024/4096 ranks\n"
      "workload: %u queries x (nprocs - 1) fragments, %u I/O servers, "
      "no-sync\n",
      base.workload.query_count, base.model.pfs.layout.server_count());

  // Flat grid in (strategy, nprocs) order, as in the default figure.
  std::vector<SweepPoint> grid;
  for (const auto strategy : core::kAllStrategies) {
    for (const auto nprocs : ranks) {
      grid.push_back({std::string(core::strategy_name(strategy)) + " n=" +
                          std::to_string(nprocs),
                      [base, strategy, nprocs] {
                        core::SimConfig config = base;
                        config.strategy = strategy;
                        config.nprocs = nprocs;
                        config.workload.fragment_count = nprocs - 1;
                        core::RunStats stats = core::run_simulation(config);
                        require_exact(stats);
                        return stats;
                      }});
    }
  }
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = run_sweep(std::move(grid), jobs);
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  util::TextTable table({"Strategy", "1024 ranks (s)", "4096 ranks (s)",
                         "growth (x)"});
  const std::string csv_file = csv_path("fig2_scale_out.csv");
  util::CsvWriter csv(csv_file);
  csv.write_row({"strategy", "ranks", "makespan_seconds", "events"});
  for (std::size_t i = 0; i < results.size(); i += 2) {
    const core::RunStats& small = results[i].stats;
    const core::RunStats& large = results[i + 1].stats;
    for (const core::RunStats* stats : {&small, &large})
      csv.write_row({std::string(core::strategy_name(stats->strategy)),
                     std::to_string(stats->nprocs),
                     std::to_string(stats->wall_seconds),
                     std::to_string(stats->events)});
    table.add_row_numeric(core::strategy_name(small.strategy),
                          {small.wall_seconds, large.wall_seconds,
                           large.wall_seconds / small.wall_seconds});
  }
  std::printf("%s(csv: %s)\n", table.render().c_str(), csv_file.c_str());
  const auto report = write_bench_json("fig2_scale_out", false, jobs, results,
                                       sweep_seconds);
  std::printf("(bench json: %s)\n", report.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = sweep_jobs(argc, argv);
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--scale-out") == 0) return run_scale_out(jobs);
  const bool quick = quick_mode(argc, argv);
  const auto procs = paper_proc_counts(quick);
  const auto& strategies = paper_strategies();

  std::printf("S3aSim Figure 2: overall execution time vs. process count\n");
  std::printf("workload: 20 queries x 128 fragments, NT histograms, ~208 MB "
              "output, flush per query, MPI_File_sync after every write\n");

  // Flat grid in (sync, nprocs, strategy) order; the tables below index
  // back into it, so serial and --jobs runs emit identical bytes.
  std::vector<SweepPoint> grid;
  for (const bool sync : {false, true}) {
    for (const auto nprocs : procs) {
      for (std::size_t s = 0; s < strategies.size(); ++s) {
        const auto strategy = strategies[s];
        grid.push_back({std::string(core::strategy_name(strategy)) + " n=" +
                            std::to_string(nprocs) +
                            (sync ? " sync" : " no-sync"),
                        [strategy, nprocs, sync] {
                          return run_point(strategy, nprocs, sync);
                        }});
      }
    }
  }
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = run_sweep(std::move(grid), jobs);
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  std::size_t index = 0;
  for (const bool sync : {false, true}) {
    std::vector<std::string> x_values;
    std::vector<std::vector<double>> seconds;
    std::vector<double> at_max(strategies.size(), 0.0);
    for (const auto nprocs : procs) {
      std::vector<double> row;
      for (std::size_t s = 0; s < strategies.size(); ++s) {
        row.push_back(results[index++].stats.wall_seconds);
        at_max[s] = row.back();  // last proc count wins
      }
      x_values.push_back(std::to_string(nprocs));
      seconds.push_back(std::move(row));
    }
    print_overall_table(
        std::string("Overall Execution Time - ") + (sync ? "Sync" : "No-sync"),
        "Processes", x_values, strategies, seconds,
        std::string("fig2_") + (sync ? "sync" : "nosync"));

    // §4: "WW-List outperforms the other I/O strategies by 364% (MW), 33%
    // (WW-POSIX), and 75% (WW-Coll) in the no-sync cases and 182% (MW), 37%
    // (WW-POSIX), and 13% (WW-Coll) in the sync cases" at 96 processors.
    const std::vector<double> paper =
        sync ? std::vector<double>{182.0, 37.0, 0.0, 13.0}
             : std::vector<double>{364.0, 33.0, 0.0, 75.0};
    if (procs.back() == 96)
      print_headline_ratios("at 96 processors", strategies, at_max, paper,
                            sync);
  }

  // One representative observed run (paper strategy at the largest grid
  // size) re-executed with the metrics registry attached; its snapshot is
  // embedded in the bench JSON.  Observability never perturbs results, so
  // the tables/CSVs above — built only from the sweep — are unaffected.
  obs::Registry registry;
  {
    auto config = core::paper_config();
    config.nprocs = procs.back();
    const core::Observability observe{nullptr, &registry};
    const auto observed = core::run_simulation(config, observe);
    require_exact(observed);
  }

  const auto report = write_bench_json("fig2", quick, jobs, results,
                                       sweep_seconds, &registry);
  std::printf("(bench json: %s)\n", report.c_str());
  return 0;
}
