/// Figures 2–7 of the paper, Figure 2 pushed to 1024 and 4096 ranks
/// (EXPERIMENTS.md, Ablation M), and the §3.3 workload table.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/scenarios.hpp"
#include "core/simulation.hpp"
#include "core/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace s3asim::bench {
namespace {

/// The second suite's compute speeds (Figures 5–7): 0.1 … 25.6, ×2.
const double kSpeeds[] = {0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6};

/// A figure's x axis: process counts at compute speed 1 (Figures 2–4) or
/// compute speeds at 64 processes (Figures 5–7).
struct Axis {
  const char* label;
  bool speed;

  [[nodiscard]] std::size_t size() const {
    return speed ? std::size(kSpeeds) : std::size(kProcCounts);
  }
  [[nodiscard]] std::string tick(std::size_t i) const {
    return speed ? util::format_fixed(kSpeeds[i], 1)
                 : std::to_string(kProcCounts[i]);
  }
  [[nodiscard]] std::vector<std::string> ticks() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < size(); ++i) out.push_back(tick(i));
    return out;
  }
  [[nodiscard]] Point point(core::Strategy strategy, bool sync,
                            std::size_t i) const {
    auto config = paper(strategy, speed ? 64 : kProcCounts[i], sync);
    if (speed) config.compute_speed = kSpeeds[i];
    return {name(strategy) + (speed ? " speed=" : " n=") + tick(i) +
                (sync ? " sync" : " no-sync"),
            config};
  }
};

const Axis kProcAxis{"Processes", false};
const Axis kSpeedAxis{"Compute Speed", true};

/// Figures 2 and 5: overall execution time of the four paper strategies
/// along `axis` in both sync modes, then the §4 headline "WW-List
/// outperforms ... by N%" at the axis end beside the paper's percentages
/// (`paper_percent[sync]`, in strategy order).  Returns the runs in (sync,
/// x, strategy) order.
std::vector<core::RunStats> overall_figure(
    Runner& runner, const char* figure, const Axis& axis, const char* at,
    const double (&paper_percent)[2][4]) {
  std::vector<Point> grid;
  for (const bool sync : {false, true})
    for (std::size_t i = 0; i < axis.size(); ++i)
      for (const auto strategy : kPaperStrategies)
        grid.push_back(axis.point(strategy, sync, i));
  const auto runs = runner.run(grid);

  std::vector<std::string> header{axis.label};
  for (const auto strategy : kPaperStrategies) header.push_back(name(strategy));
  const std::size_t half = axis.size() * std::size(kPaperStrategies);
  for (const bool sync : {false, true}) {
    const auto series = std::span(runs).subspan(sync ? half : 0, half);
    emit(wall_table(
        std::string("Overall Execution Time - ") + (sync ? "Sync" : "No-sync"),
        std::string(figure) + (sync ? "_sync.csv" : "_nosync.csv"), header,
        axis.ticks(), series));

    const auto at_end = series.last(std::size(kPaperStrategies));
    const double list = at_end[2].wall_seconds;  // WW-List
    std::printf("\n-- Headline (paper §4): WW-List outperforms ... %s, %s --\n",
                at, sync ? "sync" : "no-sync");
    util::TextTable table({"Strategy", "Time (s)", "Measured \"by N%\"",
                           "Paper \"by N%\""});
    for (std::size_t s = 0; s < at_end.size(); ++s) {
      if (kPaperStrategies[s] == core::Strategy::WWList) continue;
      const double measured =
          list > 0.0 ? (at_end[s].wall_seconds / list - 1.0) * 100.0 : 0.0;
      table.add_row({name(kPaperStrategies[s]),
                     util::format_fixed(at_end[s].wall_seconds),
                     util::format_fixed(measured, 0) + "%",
                     util::format_fixed(paper_percent[sync][s], 0) + "%"});
    }
    std::printf("%s", table.render().c_str());
  }
  return runs;
}

/// Figures 3, 4, 6 and 7: the per-phase worker breakdown of two strategies
/// along `axis` in both sync modes.  Returns the runs in (strategy, sync, x)
/// order for the figure's §4 checkpoint.
std::vector<core::RunStats> phase_figure(Runner& runner, const char* figure,
                                         const Axis& axis,
                                         core::Strategy first,
                                         core::Strategy second) {
  std::vector<Point> grid;
  for (const auto strategy : {first, second})
    for (const bool sync : {false, true})
      for (std::size_t i = 0; i < axis.size(); ++i)
        grid.push_back(axis.point(strategy, sync, i));
  const auto runs = runner.run(grid);

  auto series = std::span<const core::RunStats>(runs);
  for (const auto strategy : {first, second}) {
    for (const bool sync : {false, true}) {
      emit(phase_table(name(strategy) + (sync ? " - sync" : " - no-sync") +
                           " (worker process, seconds)",
                       std::string(figure) + "_" + name(strategy) +
                           (sync ? "_sync.csv" : "_nosync.csv"),
                       axis.ticks(), series.first(axis.size())));
      series = series.subspan(axis.size());
    }
  }
  return runs;
}

}  // namespace

std::vector<std::string> labels(std::span<const std::uint32_t> values) {
  std::vector<std::string> out;
  for (const auto value : values) out.push_back(std::to_string(value));
  return out;
}

Table wall_table(std::string title, std::string csv,
                 std::vector<std::string> header,
                 const std::vector<std::string>& x_labels,
                 std::span<const core::RunStats> runs) {
  Table table(std::move(title), std::move(csv), std::move(header));
  std::vector<double> row(table.header.size() - 1);
  for (std::size_t i = 0; i < x_labels.size(); ++i) {
    for (std::size_t c = 0; c < row.size(); ++c)
      row[c] = runs[i * row.size() + c].wall_seconds;
    table.add(x_labels[i], row);
  }
  return table;
}

void fig2_proc_scaling(Runner& runner) {
  // §4: "WW-List outperforms the other I/O strategies by 364% (MW), 33%
  // (WW-POSIX), and 75% (WW-Coll) in the no-sync cases and 182% (MW), 37%
  // (WW-POSIX), and 13% (WW-Coll) in the sync cases" at 96 processors.
  (void)overall_figure(runner, "fig2", kProcAxis, "at 96 processors",
                       {{364, 33, 0, 75}, {182, 37, 0, 13}});

  // One representative run (the paper strategy at 96 processes) repeated
  // with the metrics registry attached; its snapshot goes into the bench
  // JSON.  Observation never perturbs results, so the CSVs are unaffected.
  runner.metrics = std::make_unique<obs::Registry>();
  require_exact(core::run_simulation(
      paper(core::Strategy::WWList, 96),
      core::Observability{nullptr, runner.metrics.get()}));
}

void fig2_scale_out(Runner& runner) {
  // Every strategy at 1024 and 4096 ranks against the same 16 servers; the
  // fragment count grows to nprocs - 1 so every worker searches.
  std::vector<Point> grid;
  for (const auto strategy : core::kAllStrategies) {
    for (const std::uint32_t nprocs : {1024u, 4096u}) {
      auto config = paper(strategy, nprocs);
      config.workload.fragment_count = nprocs - 1;
      grid.push_back({name(strategy) + " n=" + std::to_string(nprocs), config});
    }
  }
  Table table("Simulated makespan at 1024 and 4096 ranks (no-sync)",
              "fig2_scale_out.csv",
              {"strategy", "ranks", "makespan_seconds", "events"});
  for (const auto& stats : runner.run(grid))
    table.rows.push_back({name(stats.strategy), std::to_string(stats.nprocs),
                          std::to_string(stats.wall_seconds),
                          std::to_string(stats.events)});
  emit(table);
}

void fig3_phase_mw_posix(Runner& runner) {
  (void)phase_figure(runner, "fig3", kProcAxis, core::Strategy::MW,
                     core::Strategy::WWPosix);
}

void fig4_phase_list_coll(Runner& runner) {
  const auto runs = phase_figure(runner, "fig4", kProcAxis,
                                 core::Strategy::WWList,
                                 core::Strategy::WWColl);
  // §4 checkpoints for WW-List at 96 processes: turning query sync on
  // raises the sync phase 0.41 s → 5.87 s and data distribution 4.47 →
  // 18.47 s.
  const std::size_t n = std::size(kProcCounts);
  const auto& nosync = runs[n - 1];
  const auto& sync = runs[2 * n - 1];
  std::printf("\nWW-List at 96 procs, no-sync → sync (paper in brackets):\n"
              "  sync phase   %.2f → %.2f s   [0.41 → 5.87]\n"
              "  data distr.  %.2f → %.2f s   [4.47 → 18.47]\n",
              nosync.worker_mean_seconds(core::Phase::Sync),
              sync.worker_mean_seconds(core::Phase::Sync),
              nosync.worker_mean_seconds(core::Phase::DataDistribution),
              sync.worker_mean_seconds(core::Phase::DataDistribution));
}

void fig5_speed_scaling(Runner& runner) {
  // §4: at compute speed 25.6, WW-List outperforms by 592% (MW), 32%
  // (WW-POSIX), 98% (WW-Coll) no-sync; 444%, 65%, 58% sync.
  const auto runs =
      overall_figure(runner, "fig5", kSpeedAxis, "at compute speed 25.6",
                     {{592, 32, 0, 98}, {444, 65, 0, 58}});
  // §4: MW is compute-insensitive ("increasing the compute speed up to 25.6
  // times faster than the base compute speed made less than a 2%
  // difference").  The speed grid has no 1.0 point, so the base runs as two
  // extra points that no table shows.
  const std::size_t n = std::size(kSpeeds);
  std::vector<Point> base;
  for (const bool sync : {false, true})
    base.push_back({std::string("MW speed=1.0") + (sync ? " sync" : " no-sync"),
                    paper(core::Strategy::MW, 64, sync)});
  const auto mw_base = runner.run(base);
  for (const bool sync : {false, true}) {
    // MW leads each x row; the last row is speed 25.6.
    const double fastest =
        runs[((sync ? n : 0) + n - 1) * std::size(kPaperStrategies)]
            .wall_seconds;
    std::printf("MW delta from base speed (1.0x) to 25.6x, %s: %.1f%% "
                "(paper: <2%%)\n",
                sync ? "sync" : "no-sync",
                (mw_base[sync ? 1 : 0].wall_seconds / fastest - 1.0) * 100.0);
  }
}

void fig6_phase_mw_posix(Runner& runner) {
  const auto runs = phase_figure(runner, "fig6", kSpeedAxis,
                                 core::Strategy::MW, core::Strategy::WWPosix);
  // §4 checkpoint: "At compute speed = 0.1, workers spend close to an
  // average of 54 secs in the compute phase"; at 25.6, "slightly more than
  // 0.8 secs".  WW-POSIX no-sync is the third series.
  const std::size_t n = std::size(kSpeeds);
  std::printf("\nWorker mean compute at speed 0.1: %.2f s [paper ~54],"
              " at 25.6: %.2f s [paper ~0.8]\n",
              runs[2 * n].worker_mean_seconds(core::Phase::Compute),
              runs[3 * n - 1].worker_mean_seconds(core::Phase::Compute));
}

void fig7_phase_list_coll(Runner& runner) {
  const auto runs = phase_figure(runner, "fig7", kSpeedAxis,
                                 core::Strategy::WWList,
                                 core::Strategy::WWColl);
  // §4: "WW-Coll is hardly affected when going from no-sync to sync (at
  // most 4%)" across the speed sweep.  WW-Coll's series are the last two.
  const std::size_t n = std::size(kSpeeds);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double delta =
        (runs[3 * n + i].wall_seconds / runs[2 * n + i].wall_seconds - 1.0) *
        100.0;
    worst = std::max(worst, std::abs(delta));
  }
  std::printf("\nWW-Coll worst |sync - no-sync| delta over the sweep: %.1f%% "
              "[paper: at most ~4%%]\n",
              worst);
}

void workload_report(Runner& /*runner*/) {
  const auto config = core::paper_config();
  const core::WorkloadModel workload(config.workload);

  std::printf("NT database histogram reconstruction:\n%s\n",
              config.workload.database_histogram.describe().c_str());
  std::printf("query histogram: mean %s (paper: 20 queries ~ 86 KB)\n\n",
              util::format_bytes(static_cast<std::uint64_t>(
                                     config.workload.query_histogram.mean()))
                  .c_str());
  std::printf("queries              : %u\n", config.workload.query_count);
  std::printf("fragments            : %u\n", config.workload.fragment_count);
  std::printf("total results        : %llu  (paper: 1000-2000/query)\n",
              static_cast<unsigned long long>(workload.total_result_count()));
  std::printf("total output         : %s  (paper: ~208 MB)\n",
              util::format_bytes(workload.total_output_bytes()).c_str());

  util::TextTable table({"Query", "Results", "Region size", "Region offset"});
  for (std::uint32_t q = 0; q < config.workload.query_count; ++q) {
    const auto& query = workload.query(q);
    table.add_row({std::to_string(q), std::to_string(query.results.size()),
                   util::format_bytes(query.total_bytes),
                   util::format_bytes(workload.region_base(q))});
  }
  std::printf("\n%s", table.render().c_str());

  // Compute-time heterogeneity across (query, fragment) tasks — the source
  // of the straggler effects in Figures 4/7.
  std::vector<double> task_seconds;
  util::RunningStats stats;
  for (std::uint32_t q = 0; q < config.workload.query_count; ++q) {
    for (std::uint32_t f = 0; f < config.workload.fragment_count; ++f) {
      const double seconds =
          sim::to_seconds(config.model.compute_startup) +
          static_cast<double>(workload.fragment_result_bytes(q, f)) *
              config.model.compute_ns_per_result_byte * 1e-9;
      task_seconds.push_back(seconds);
      stats.add(seconds);
    }
  }
  std::printf("\nper-task compute time at speed 1.0:\n");
  std::printf("  tasks %zu, total %.1f s, mean %.3f s, stddev %.3f s\n",
              task_seconds.size(), stats.sum(), stats.mean(), stats.stddev());
  std::printf("  p50 %.3f s, p90 %.3f s, p99 %.3f s, max %.3f s\n",
              util::percentile(task_seconds, 50),
              util::percentile(task_seconds, 90),
              util::percentile(task_seconds, 99), stats.max());
  std::printf("  (coefficient of variation %.2f — the paper: \"large "
              "variance in compute phase times among workers\")\n",
              util::coefficient_of_variation(task_seconds));
}

}  // namespace s3asim::bench
