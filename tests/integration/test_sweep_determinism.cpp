/// Determinism regression suite for the bench scenario runner: a `--jobs N`
/// sweep must be byte-identical to the serial sweep (DESIGN.md §5 — the
/// paper's "results are always identical" seed-determinism invariant must
/// survive host-side parallelism).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "core/simulation.hpp"

namespace {

using namespace s3asim;
using namespace s3asim::bench;

constexpr core::Strategy kPaperStrategies[] = {
    core::Strategy::MW, core::Strategy::WWPosix, core::Strategy::WWList,
    core::Strategy::WWColl};

std::vector<Point> quick_grid(const std::vector<std::uint32_t>& procs,
                              const std::vector<double>& speeds) {
  std::vector<Point> grid;
  for (const bool sync : {false, true}) {
    for (const auto nprocs : procs) {
      for (const auto strategy : kPaperStrategies) {
        for (const double speed : speeds) {
          auto config = core::paper_config();
          config.strategy = strategy;
          config.nprocs = nprocs;
          config.query_sync = sync;
          config.compute_speed = speed;
          grid.push_back({"", config});
        }
      }
    }
  }
  return grid;
}

std::vector<std::string> run_as_json(const std::vector<std::uint32_t>& procs,
                                     const std::vector<double>& speeds,
                                     unsigned jobs) {
  const auto results = run_sweep(quick_grid(procs, speeds), jobs);
  std::vector<std::string> json;
  json.reserve(results.size());
  for (const auto& point : results) json.push_back(point.stats.to_json());
  return json;
}

TEST(SweepDeterminismTest, Fig2QuickGridParallelMatchesSerial) {
  // A fig2-style grid (proc scaling), serial vs. 4 workers: every point's
  // full RunStats dump must match byte-for-byte, in grid order.
  const std::vector<std::uint32_t> procs{2, 8};
  const std::vector<double> speeds{1.0};
  const auto serial = run_as_json(procs, speeds, 1);
  const auto parallel = run_as_json(procs, speeds, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "grid point " << i;
}

TEST(SweepDeterminismTest, Fig5QuickGridParallelMatchesSerial) {
  // A fig5-style grid (compute-speed scaling at a fixed proc count).
  const std::vector<std::uint32_t> procs{8};
  const std::vector<double> speeds{0.1, 25.6};
  const auto serial = run_as_json(procs, speeds, 1);
  const auto parallel = run_as_json(procs, speeds, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "grid point " << i;
}

TEST(SweepDeterminismTest, RepeatedParallelRunsAreIdentical) {
  // Two parallel executions of the same grid (different interleavings)
  // must agree with each other, not just with a serial reference.
  const std::vector<std::uint32_t> procs{2, 8};
  const std::vector<double> speeds{1.0};
  const auto first = run_as_json(procs, speeds, 4);
  const auto second = run_as_json(procs, speeds, 4);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], second[i]) << "grid point " << i;
}

TEST(SweepDeterminismTest, ExceptionInOnePointPropagates) {
  auto ok = core::paper_config();
  ok.nprocs = 2;
  auto invalid = ok;
  invalid.groups = 3;  // 2 ranks cannot form 3 master/worker groups
  const std::vector<Point> grid{{"ok", ok}, {"invalid", invalid}};
  EXPECT_THROW({ (void)run_sweep(grid, 2); }, std::invalid_argument);
}

Options parse(std::vector<const char*> args) {
  static const Scenario table[] = {{"fig2_proc_scaling", nullptr, ""},
                                   {"ablation_sieve", nullptr, ""}};
  args.insert(args.begin(), "s3asim_bench");
  return parse_args(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()), table);
}

TEST(SweepDeterminismTest, JobsFlagParsing) {
  EXPECT_EQ(parse({"--jobs", "4"}).jobs, 4u);
  EXPECT_EQ(parse({"--jobs=7"}).jobs, 7u);
  EXPECT_EQ(parse({"fig2_proc_scaling"}).jobs, 1u);
  EXPECT_THROW((void)parse({"--jobs", "0"}), std::runtime_error);
  EXPECT_THROW((void)parse({"--jobs", "3x"}), std::runtime_error);
  EXPECT_THROW((void)parse({"--jobs"}), std::runtime_error);
  EXPECT_THROW((void)parse({"ablation_sieve", "--jobs"}), std::runtime_error);
}

TEST(SweepDeterminismTest, ScenarioSelection) {
  // No names selects every row in table order; named rows keep the
  // command-line order; unknown flags and names are rejected.
  const auto all = parse({"--jobs", "2"});
  ASSERT_EQ(all.scenarios.size(), 2u);
  EXPECT_STREQ(all.scenarios[0]->name, "fig2_proc_scaling");
  const auto named = parse({"ablation_sieve", "fig2_proc_scaling"});
  ASSERT_EQ(named.scenarios.size(), 2u);
  EXPECT_STREQ(named.scenarios[0]->name, "ablation_sieve");
  EXPECT_THROW((void)parse({"--quik"}), std::runtime_error);
  EXPECT_THROW((void)parse({"fig9"}), std::runtime_error);
}

}  // namespace
