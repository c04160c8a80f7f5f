#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/simulation.hpp"
#include "fault/fault.hpp"
#include "sim/time.hpp"

namespace {

using namespace s3asim::core;
namespace fault = s3asim::fault;
namespace sim = s3asim::sim;

[[nodiscard]] sim::Time fraction_of_wall(double wall_seconds, double fraction) {
  return static_cast<sim::Time>(std::llround(wall_seconds * fraction * 1e9));
}

/// A fault config tuned for the small test workload: detection fast enough
/// to keep tests quick, slow enough that a healthy worker's longest
/// search-plus-flush cycle (POSIX per-extent flushes are the worst) does
/// not trip it.
[[nodiscard]] SimConfig fault_test_config(Strategy strategy) {
  auto config = test_config();
  config.strategy = strategy;
  config.fault_detection_timeout = sim::seconds(2);
  return config;
}

constexpr Strategy kRecoveryStrategies[] = {
    Strategy::MW,     Strategy::WWPosix,     Strategy::WWList,
    Strategy::WWColl, Strategy::WWCollList,  Strategy::WWFilePerProcess,
};

// ---------------------------------------------------------------------------
// No-faults regression: the empty plan must not change anything.
// ---------------------------------------------------------------------------

TEST(FaultRegressionTest, EmptyPlanIsByteIdenticalToDefault) {
  auto config = test_config();
  const auto baseline = run_simulation(config);
  config.fault = fault::FaultPlan{};  // explicit empty plan
  const auto with_plan = run_simulation(config);
  EXPECT_EQ(baseline.to_json(), with_plan.to_json());
  EXPECT_EQ(with_plan.faults.workers_died, 0u);
  EXPECT_EQ(with_plan.faults.workers_retired, 0u);
  EXPECT_EQ(with_plan.faults.tasks_reassigned, 0u);
  EXPECT_EQ(with_plan.faults.scores_dropped, 0u);
  EXPECT_EQ(with_plan.faults.repaired_bytes, 0u);
}

TEST(FaultRegressionTest, HarmlessPlanMatchesBaselineClosely) {
  // factor=1 slowdown: zero perturbation, but it switches the master to its
  // event loop — results must agree with the closed-batch loop (wall may
  // differ by a few control messages' worth of protocol slack).
  auto config = fault_test_config(Strategy::WWList);
  const auto baseline = run_simulation(config);
  config.fault = fault::parse_fault_plan("slow:worker=1,factor=1");
  const auto recovery = run_simulation(config);
  EXPECT_TRUE(recovery.file_exact) << recovery.summary();
  EXPECT_EQ(recovery.output_bytes, baseline.output_bytes);
  EXPECT_EQ(recovery.faults.workers_died, 0u);
  EXPECT_EQ(recovery.faults.workers_retired, 0u);
  EXPECT_NEAR(recovery.wall_seconds, baseline.wall_seconds,
              0.10 * baseline.wall_seconds);
}

// ---------------------------------------------------------------------------
// Worker death: every strategy must recover and still verify exactly.
// ---------------------------------------------------------------------------

class WorkerDeathTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(WorkerDeathTest, DeathAtHalfRunRecoversAndVerifies) {
  auto config = fault_test_config(GetParam());
  const auto baseline = run_simulation(config);
  config.fault.kills.push_back(
      fault::WorkerKill{1, fraction_of_wall(baseline.wall_seconds, 0.5)});
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_EQ(stats.overlap_count, 0u);
  EXPECT_EQ(stats.bytes_covered, stats.output_bytes);
  EXPECT_EQ(stats.faults.workers_died, 1u);
  EXPECT_GE(stats.faults.workers_retired, 1u);
  // Losing a quarter of the workers mid-run costs time.
  EXPECT_GT(stats.wall_seconds, baseline.wall_seconds);
}

TEST_P(WorkerDeathTest, DeathBeforeFirstScoreRecoversAndVerifies) {
  auto config = fault_test_config(GetParam());
  // Die almost immediately: before the worker has submitted any scores.
  config.fault.kills.push_back(fault::WorkerKill{1, sim::milliseconds(1)});
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_EQ(stats.overlap_count, 0u);
  EXPECT_EQ(stats.faults.workers_died, 1u);
  // Everything it was assigned must have been recomputed by survivors.
  std::uint64_t tasks = 0;
  for (const auto& rank : stats.ranks) tasks += rank.tasks_processed;
  EXPECT_GE(tasks, static_cast<std::uint64_t>(config.workload.query_count) *
                       config.workload.fragment_count);
}

TEST_P(WorkerDeathTest, DeathNearEndAfterScoresRecoversAndVerifies) {
  auto config = fault_test_config(GetParam());
  const auto baseline = run_simulation(config);
  // Die at 70% of the way to the last batch completion: scores for most
  // assignments are already submitted, but the death still lands before the
  // run ends (the master's event loop wakes on scores as well as requests
  // and can finish noticeably earlier than the closed-batch baseline, so
  // late fractions of the baseline wall can miss the run).
  ASSERT_FALSE(baseline.batch_complete_seconds.empty());
  config.fault.kills.push_back(fault::WorkerKill{
      1, fraction_of_wall(baseline.batch_complete_seconds.back(), 0.7)});
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_EQ(stats.overlap_count, 0u);
  EXPECT_EQ(stats.faults.workers_died, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, WorkerDeathTest,
                         ::testing::ValuesIn(kRecoveryStrategies),
                         [](const auto& param_info) {
                           std::string name = strategy_name(param_info.param);
                           std::erase_if(name, [](char c) {
                             return !std::isalnum(static_cast<unsigned char>(c));
                           });
                           return name;
                         });

// ---------------------------------------------------------------------------
// Deterministic replay: same seed + same plan ⇒ identical run.
// ---------------------------------------------------------------------------

TEST(FaultDeterminismTest, KillPlanReplaysIdentically) {
  auto config = fault_test_config(Strategy::WWList);
  config.fault = fault::parse_fault_plan("kill:worker=2,at=1s");
  const auto first = run_simulation(config);
  const auto second = run_simulation(config);
  EXPECT_EQ(first.to_json(), second.to_json());
}

TEST(FaultDeterminismTest, DropPlanReplaysIdentically) {
  auto config = fault_test_config(Strategy::MW);
  config.fault = fault::parse_fault_plan("drop:worker=1,prob=0.5");
  const auto first = run_simulation(config);
  const auto second = run_simulation(config);
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_GE(first.faults.scores_dropped, 1u);
}

// ---------------------------------------------------------------------------
// Message faults: drops force retirement; delays only add latency.
// ---------------------------------------------------------------------------

TEST(MessageFaultTest, CertainDropsRetireTheWorkerAndStillVerify) {
  auto config = fault_test_config(Strategy::WWList);
  config.fault = fault::parse_fault_plan("drop:worker=1,prob=1");
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_EQ(stats.overlap_count, 0u);
  EXPECT_EQ(stats.faults.workers_died, 0u);  // alive, just mute
  EXPECT_EQ(stats.faults.workers_retired, 1u);
  EXPECT_GE(stats.faults.scores_dropped, 1u);
  EXPECT_GE(stats.faults.tasks_reassigned, 1u);
}

TEST(MessageFaultTest, DelayedScoresOnlyAddLatency) {
  // Baseline with a zero delay: same master event loop (whose protocol
  // slack differs slightly from the closed-batch loop), so the comparison
  // isolates the injected latency.
  auto config = fault_test_config(Strategy::WWList);
  config.fault = fault::parse_fault_plan("delay:worker=1,by=0");
  const auto baseline = run_simulation(config);
  config.fault = fault::parse_fault_plan("delay:worker=1,by=20ms");
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_EQ(stats.faults.workers_retired, 0u);
  EXPECT_EQ(stats.faults.duplicate_completions, 0u);
  EXPECT_GE(stats.wall_seconds, baseline.wall_seconds);
}

// ---------------------------------------------------------------------------
// Stragglers: a slowed worker at the collective barrier must not be
// misdeclared dead under a generous timeout.
// ---------------------------------------------------------------------------

TEST(StragglerTest, SlowWorkerAtCollectiveBarrierIsNotRetired) {
  auto config = fault_test_config(Strategy::WWColl);
  const auto baseline = run_simulation(config);
  config.fault = fault::parse_fault_plan("slow:worker=1,factor=8");
  config.fault_detection_timeout = sim::seconds(60);
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_EQ(stats.faults.workers_died, 0u);
  EXPECT_EQ(stats.faults.workers_retired, 0u);
  EXPECT_EQ(stats.faults.duplicate_completions, 0u);
  // The straggler slows every collective round down.
  EXPECT_GT(stats.wall_seconds, baseline.wall_seconds);
}

TEST(StragglerTest, SpeculativeRetirementOfStragglerKeepsLayoutExact) {
  // A timeout shorter than the straggler's stretched search retires it even
  // though it is alive; its late duplicate completions must be discarded,
  // keeping the layout exact.
  auto config = fault_test_config(Strategy::WWList);
  config.fault = fault::parse_fault_plan("slow:worker=1,factor=8");
  config.fault_detection_timeout = sim::milliseconds(400);
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_EQ(stats.overlap_count, 0u);
  EXPECT_EQ(stats.faults.workers_died, 0u);
  EXPECT_GE(stats.faults.workers_retired, 1u);
  EXPECT_GE(stats.faults.duplicate_completions, 1u);
}

// ---------------------------------------------------------------------------
// PFS server faults: pure I/O degradation, no protocol perturbation.
// ---------------------------------------------------------------------------

TEST(ServerFaultTest, DegradedServerSlowsTheRunButVerifies) {
  auto config = fault_test_config(Strategy::WWList);
  const auto baseline = run_simulation(config);
  config.fault = fault::parse_fault_plan("server:id=0,factor=16,stall=50ms");
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_EQ(stats.faults.workers_died, 0u);
  EXPECT_GT(stats.wall_seconds, baseline.wall_seconds);
}

TEST(ServerFaultTest, StallAppliesFromItsStartTime) {
  auto config = fault_test_config(Strategy::WWList);
  config.fault = fault::parse_fault_plan("server:id=1,from=0,stall=100ms");
  const auto with_stall = run_simulation(config);
  EXPECT_TRUE(with_stall.file_exact);
}

// ---------------------------------------------------------------------------
// Hybrid groups and plan validation.
// ---------------------------------------------------------------------------

TEST(FaultHybridTest, DeathInOneGroupDoesNotCorruptTheOther) {
  auto config = fault_test_config(Strategy::WWList);
  config.nprocs = 6;  // two groups: masters 0 and 3
  config.groups = 2;
  config.fault = fault::parse_fault_plan("kill:worker=4,at=500ms");
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_EQ(stats.faults.workers_died, 1u);
}

TEST(FaultValidationTest, FaultAgainstMasterRankIsRejected) {
  auto config = fault_test_config(Strategy::WWList);
  config.fault = fault::parse_fault_plan("kill:worker=0,at=1s");
  EXPECT_THROW((void)run_simulation(config), std::invalid_argument);
}

TEST(FaultValidationTest, FaultAgainstUnknownRankIsRejected) {
  auto config = fault_test_config(Strategy::WWList);
  config.fault = fault::parse_fault_plan("slow:worker=99,factor=2");
  EXPECT_THROW((void)run_simulation(config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Resume-from-flush (whole-run crash).
// ---------------------------------------------------------------------------

TEST(ResumeTest, CrashMidRunResumesFromLastFlushedBatch) {
  auto config = fault_test_config(Strategy::WWList);
  const auto baseline = run_simulation(config);
  config.fault.crash_at = fraction_of_wall(baseline.wall_seconds, 0.6);
  const auto stats = run_simulation(config);
  const ResumeStats& resume = stats.resume;
  EXPECT_TRUE(resume.crashed);
  EXPECT_GT(resume.resume_query, 0u);  // some batches were already durable
  EXPECT_LT(resume.resume_query, config.workload.query_count);
  // The reported run is the resumed tail.
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_DOUBLE_EQ(resume.resumed_seconds, stats.wall_seconds);
  EXPECT_NEAR(resume.total_seconds,
              resume.crashed_seconds + resume.resumed_seconds, 1e-9);
  // Redoing work costs more than one clean run, but resume beats restarting
  // from scratch (crash + full rerun).
  EXPECT_GT(resume.total_seconds, baseline.wall_seconds);
  EXPECT_LT(resume.resumed_seconds, baseline.wall_seconds);
}

TEST(ResumeTest, CrashAfterCompletionIsANoOp) {
  auto config = fault_test_config(Strategy::WWList);
  const auto baseline = run_simulation(config);
  config.fault.crash_at =
      fraction_of_wall(baseline.wall_seconds, 2.0);  // after the end
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.resume.enabled);
  EXPECT_FALSE(stats.resume.crashed);
  EXPECT_DOUBLE_EQ(stats.resume.total_seconds, baseline.wall_seconds);
  // The reported run is the crash-free replay, which is the baseline.
  auto reported = stats;
  reported.resume = ResumeStats{};
  EXPECT_EQ(reported.to_json(), baseline.to_json());
}

TEST(ResumeTest, EarlyCrashRedoesEverything) {
  auto config = fault_test_config(Strategy::WWList);
  config.fault.crash_at = sim::milliseconds(1);  // before any flush
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.resume.crashed);
  EXPECT_EQ(stats.resume.resume_query, 0u);
  EXPECT_TRUE(stats.file_exact);
}

TEST(ResumeTest, BatchCompletionTimesAreMonotone) {
  auto config = fault_test_config(Strategy::WWList);
  const auto stats = run_simulation(config);
  ASSERT_EQ(stats.batch_complete_seconds.size(),
            (config.workload.query_count + config.queries_per_flush - 1) /
                config.queries_per_flush);
  double previous = 0.0;
  for (const double at : stats.batch_complete_seconds) {
    EXPECT_GE(at, previous);
    previous = at;
  }
  EXPECT_LE(previous, stats.wall_seconds + 1e-9);
}

}  // namespace
