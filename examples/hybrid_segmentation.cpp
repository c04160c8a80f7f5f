/// Demonstrates hybrid query/database segmentation (paper §5 future work):
/// the ranks split into independent master/worker teams, queries divided
/// across teams, database segmented within each team — all sharing one
/// cluster and one parallel file system.
///
///   ./hybrid_segmentation [procs] [strategy]

#include <cstdio>
#include <cstdlib>

#include "core/simulation.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace s3asim;
  const std::uint32_t procs =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 48;
  const core::Strategy strategy =
      argc > 2 ? core::parse_strategy(argv[2]) : core::Strategy::MW;

  auto config = core::paper_config();
  config.nprocs = procs;
  config.strategy = strategy;

  std::printf("S3aSim hybrid segmentation: %s at %u ranks\n",
              core::strategy_name(strategy), procs);
  std::printf("(groups = 1 is plain database segmentation; more groups add "
              "query segmentation on top)\n\n");

  util::TextTable table({"Groups", "Team size", "Wall (s)",
                         "vs 1 group", "Output"});
  double baseline = 0.0;
  bool exact = true;
  for (const std::uint32_t groups : {1u, 2u, 4u}) {
    if (procs % groups != 0 || procs / groups < 2) continue;
    config.groups = groups;
    const auto stats = core::run_simulation(config);
    exact = exact && stats.file_exact;
    if (baseline == 0.0) baseline = stats.wall_seconds;
    table.add_row({std::to_string(groups),
                   std::to_string(procs / groups) + " ranks",
                   util::format_fixed(stats.wall_seconds),
                   util::format_fixed(
                       (baseline / stats.wall_seconds - 1.0) * 100.0, 1) + "%",
                   util::format_bytes(stats.output_bytes) +
                       (stats.file_exact ? " ok" : " BAD")});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nMW benefits most: each team brings its own master, dividing "
              "the §2.1 centralization bottleneck.\n");
  return exact ? 0 : 1;
}
