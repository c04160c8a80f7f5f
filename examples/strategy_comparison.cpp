/// Compares all five I/O strategies (the paper's four plus the WW-CollList
/// extension) on the same workload, in both query-sync modes — a compact
/// rendition of the paper's whole evaluation at one process count.
///
///   ./strategy_comparison [procs]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/simulation.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace s3asim;
  const std::uint32_t procs =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 32;

  std::printf("S3aSim strategy comparison at %u processes\n", procs);

  const std::vector<core::Strategy> strategies{
      core::Strategy::MW,       core::Strategy::WWPosix,
      core::Strategy::WWList,   core::Strategy::WWColl,
      core::Strategy::WWCollList, core::Strategy::WWFilePerProcess};

  util::TextTable table({"Strategy", "No-sync (s)", "Sync (s)",
                         "Sync penalty", "Worker I/O (s)", "Worker DD (s)"});
  double best_nosync = 0.0;
  std::string best_name;
  bool exact = true;
  for (const auto strategy : strategies) {
    auto config = core::paper_config();
    config.nprocs = procs;
    config.strategy = strategy;

    config.query_sync = false;
    const auto nosync = core::run_simulation(config);
    config.query_sync = true;
    const auto sync = core::run_simulation(config);
    exact = exact && nosync.file_exact && sync.file_exact;

    table.add_row(
        {core::strategy_name(strategy),
         util::format_fixed(nosync.wall_seconds),
         util::format_fixed(sync.wall_seconds),
         util::format_fixed(
             (sync.wall_seconds / nosync.wall_seconds - 1.0) * 100.0, 1) + "%",
         util::format_fixed(nosync.worker_mean_seconds(core::Phase::Io)),
         util::format_fixed(
             nosync.worker_mean_seconds(core::Phase::DataDistribution))});
    if (best_name.empty() || nosync.wall_seconds < best_nosync) {
      best_nosync = nosync.wall_seconds;
      best_name = core::strategy_name(strategy);
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nFastest no-sync strategy at %u processes: %s (%.2f s)\n",
              procs, best_name.c_str(), best_nosync);
  std::printf("Paper expectation at scale: WW-List wins; MW trails by the "
              "largest margin; WW-Coll and MW are insensitive to sync.\n");
  if (!exact) std::printf("VERIFICATION FAILED: an output file is inexact\n");
  return exact ? 0 : 1;
}
