/// Ablation G — §5 future work: "hybrid query segmentation/database
/// segmentation strategies".  Splits the ranks into G master/worker teams;
/// queries are query-segmented across teams and database-segmented within
/// them.  Sweeps G for each strategy and shows the memory trade-off: more
/// teams relieve the master/collective bottlenecks but raise per-worker
/// database pressure when the database exceeds node memory.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace s3asim;
using namespace s3asim::bench;
using util::GiB;

namespace {

core::RunStats run_groups(core::Strategy strategy, std::uint32_t nprocs,
                          std::uint32_t groups, std::uint64_t db_bytes = 0,
                          std::uint64_t memory = GiB) {
  auto config = core::paper_config();
  config.strategy = strategy;
  config.nprocs = nprocs;
  config.workload.database_bytes = db_bytes;
  config.worker_memory_bytes = memory;
  config.groups = groups;
  auto stats = core::run_simulation(config);
  require_exact(stats);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const unsigned jobs = sweep_jobs(argc, argv);
  const std::uint32_t nprocs = 96;  // divisible by 1, 2, 4, 8
  const auto group_counts = quick ? std::vector<std::uint32_t>{1, 4}
                                  : std::vector<std::uint32_t>{1, 2, 4, 8};

  std::printf("S3aSim Ablation G: hybrid query/database segmentation "
              "(%u ranks)\n", nprocs);

  std::vector<SweepPoint> grid;
  for (const auto groups : group_counts) {
    for (const auto strategy : {core::Strategy::MW, core::Strategy::WWList,
                                core::Strategy::WWColl}) {
      grid.push_back({std::string(core::strategy_name(strategy)) +
                          " groups=" + std::to_string(groups),
                      [strategy, groups] {
                        return run_groups(strategy, nprocs, groups);
                      }});
    }
  }
  for (const auto groups : group_counts) {
    grid.push_back({"WW-List 8GiB-db groups=" + std::to_string(groups),
                    [groups] {
                      return run_groups(core::Strategy::WWList, nprocs, groups,
                                        8 * GiB, GiB);
                    }});
  }
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = run_sweep(std::move(grid), jobs);
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  std::size_t index = 0;
  // --- Group sweep per strategy (no database-memory pressure). ------------
  {
    util::TextTable table({"Groups", "MW (s)", "WW-List (s)", "WW-Coll (s)"});
    util::CsvWriter csv(csv_path("ablation_hybrid_groups.csv"));
    csv.write_row({"groups", "mw", "ww_list", "ww_coll"});
    for (const auto groups : group_counts) {
      const auto& mw = results[index++].stats;
      const auto& list = results[index++].stats;
      const auto& coll = results[index++].stats;
      table.add_row_numeric(std::to_string(groups),
                            {mw.wall_seconds, list.wall_seconds,
                             coll.wall_seconds});
      csv.write_row_numeric(std::to_string(groups),
                            {mw.wall_seconds, list.wall_seconds,
                             coll.wall_seconds});
    }
    std::printf("\n== Group-count sweep ==\n%s", table.render().c_str());
    std::printf("(csv: results/ablation_hybrid_groups.csv)\n");
    std::printf("Hybrid grouping divides the MW master bottleneck and the\n"
                "collective synchronization domain; individual worker-writing"
                " gains little.\n");
  }

  // --- The memory trade-off (8 GiB database, 1 GiB nodes). -----------------
  {
    util::TextTable table({"Groups", "Wall (s)", "DB read", "Hit rate"});
    util::CsvWriter csv(csv_path("ablation_hybrid_memory.csv"));
    csv.write_row({"groups", "wall_s", "db_read_bytes", "hit_rate"});
    for (const auto groups : group_counts) {
      const auto& stats = results[index++].stats;
      std::uint64_t loads = 0, hits = 0;
      for (const auto& rank : stats.ranks) {
        loads += rank.fragment_loads;
        hits += rank.fragment_hits;
      }
      const double hit_rate =
          loads + hits > 0
              ? static_cast<double>(hits) / static_cast<double>(loads + hits)
              : 0.0;
      table.add_row({std::to_string(groups),
                     util::format_fixed(stats.wall_seconds),
                     util::format_bytes(stats.db_bytes_read),
                     util::format_fixed(hit_rate * 100.0, 1) + "%"});
      csv.write_row_numeric(std::to_string(groups),
                            {stats.wall_seconds,
                             static_cast<double>(stats.db_bytes_read),
                             hit_rate});
    }
    std::printf("\n== With an 8 GiB database on 1 GiB nodes (WW-List) ==\n%s",
                table.render().c_str());
    std::printf("(csv: results/ablation_hybrid_memory.csv)\n");
    std::printf("More groups shrink each team, so each worker must hold more "
                "of the database — the §1 query-segmentation penalty "
                "returns.\n");
  }

  const auto report = write_bench_json("ablation_hybrid", quick, jobs,
                                       results, sweep_seconds);
  std::printf("(bench json: %s)\n", report.c_str());
  return 0;
}
