/// Zero-perturbation contract of the observability layer (DESIGN.md §8):
/// attaching a TraceLog and/or metrics Registry must not change a single
/// bit of a run's results.  Every comparison here is on the full RunStats
/// JSON dump (and on actual bench CSV bytes), not on summaries.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "core/simulation.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace s3asim;
using namespace s3asim::core;

constexpr Strategy kAllStrategies[] = {Strategy::MW, Strategy::WWPosix,
                                       Strategy::WWList, Strategy::WWColl,
                                       Strategy::WWCollList};

/// One run with full observability attached (trace + metrics + profiler).
RunStats run_observed(const SimConfig& config, trace::TraceLog* trace_log,
                      obs::Registry* registry) {
  const Observability observe{trace_log, registry};
  return run_simulation(config, observe);
}

TEST(ObservabilityDeterminismTest, StatsIdenticalWithAndWithoutSinks) {
  for (const Strategy strategy : kAllStrategies) {
    for (const bool sync : {false, true}) {
      auto config = test_config();
      config.strategy = strategy;
      config.query_sync = sync;
      const std::string bare = run_simulation(config).to_json();
      trace::TraceLog trace_log;
      obs::Registry registry;
      const std::string observed =
          run_observed(config, &trace_log, &registry).to_json();
      EXPECT_EQ(bare, observed)
          << "strategy " << strategy_name(strategy) << " sync " << sync;
      EXPECT_GT(trace_log.size(), 0u);
      EXPECT_GT(trace_log.spans().size(), 0u);
      EXPECT_GT(trace_log.flows().size(), 0u);
      EXPECT_EQ(trace_log.dropped(), 0u);
    }
  }
}

TEST(ObservabilityDeterminismTest, MetricsOnlyAndTraceOnlyAlsoIdentical) {
  auto config = test_config();
  const std::string bare = run_simulation(config).to_json();
  {
    obs::Registry registry;
    EXPECT_EQ(bare, run_observed(config, nullptr, &registry).to_json());
  }
  {
    trace::TraceLog trace_log;
    EXPECT_EQ(bare, run_observed(config, &trace_log, nullptr).to_json());
  }
}

TEST(ObservabilityDeterminismTest, HybridRunsUnperturbed) {
  auto config = test_config();
  config.nprocs = 8;
  config.groups = 2;
  const std::string bare = run_simulation(config).to_json();
  trace::TraceLog trace_log;
  obs::Registry registry;
  EXPECT_EQ(bare, run_observed(config, &trace_log, &registry).to_json());
}

TEST(ObservabilityDeterminismTest, FaultyRunsUnperturbed) {
  auto config = test_config();
  config.nprocs = 6;
  config.fault = fault::parse_fault_plan("kill:worker=2,at=0.01s");
  const std::string bare = run_simulation(config).to_json();
  trace::TraceLog trace_log;
  obs::Registry registry;
  const std::string observed =
      run_observed(config, &trace_log, &registry).to_json();
  EXPECT_EQ(bare, observed);
  EXPECT_GE(registry.counter("fault.workers_died").value(), 1u);
}

TEST(ObservabilityDeterminismTest, ResumeRunsUnperturbed) {
  auto config = test_config();
  config.fault = fault::parse_fault_plan("crash:at=0.02s");
  const RunStats bare = run_simulation(config);
  ASSERT_TRUE(bare.resume.crashed);
  trace::TraceLog trace_log;
  obs::Registry registry;
  EXPECT_EQ(bare.to_json(),
            run_observed(config, &trace_log, &registry).to_json());
}

TEST(ObservabilityDeterminismTest, PublishedMetricsMatchRunStats) {
  auto config = test_config();
  obs::Registry registry;
  const RunStats stats = run_observed(config, nullptr, &registry);
  EXPECT_EQ(registry.counter("core.output_bytes").value(), stats.output_bytes);
  EXPECT_EQ(registry.counter("sim.sched.events").value(), stats.events);
  std::uint64_t tasks = 0;
  for (const auto& rank : stats.ranks) tasks += rank.tasks_processed;
  EXPECT_EQ(registry.counter("core.tasks_processed").value(), tasks);
  EXPECT_GT(registry.counter("mpi.messages").value(), 0u);
  EXPECT_GT(registry.counter("pfs.write.requests").value(), 0u);
  EXPECT_GT(registry.histogram("pfs.write.service_seconds").count(), 0u);
  EXPECT_GT(registry.histogram("mpi.message.delivery_seconds").count(), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("core.wall_seconds").value(),
                   stats.wall_seconds);
  // An explicit zero, so the manifest always carries the drop counter.
  EXPECT_EQ(registry.counter("trace.intervals_dropped").value(), 0u);
}

/// The registry's snapshot with the host.* namespace removed, serialized:
/// what `obs_validate --simulated-only` keeps of a manifest.
std::string simulated_only(const obs::Registry& registry) {
  obs::Snapshot snapshot = registry.snapshot();
  const auto host = [](const auto& entry) {
    return entry.first.starts_with("host.");
  };
  std::erase_if(snapshot.counters, host);
  std::erase_if(snapshot.gauges, host);
  std::erase_if(snapshot.histograms, host);
  util::JsonWriter json;
  snapshot.write_json(json);
  return json.str();
}

TEST(ObservabilityDeterminismTest, SimulatedMetricsRepeatOnOneThread) {
  // Host-side state that outlives a run (the thread-local coroutine frame
  // pool above all) must stay out of the simulated namespace: a second run
  // on the same thread publishes the same non-host snapshot as the first.
  auto config = paper_config();
  config.nprocs = 8;
  obs::Registry first;
  obs::Registry second;
  (void)run_observed(config, nullptr, &first);
  (void)run_observed(config, nullptr, &second);
  EXPECT_EQ(simulated_only(first), simulated_only(second));
}

std::string slurp(const std::string& path) {
  std::ifstream input(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(input)) << path;
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return buffer.str();
}

TEST(ObservabilityDeterminismTest, BenchCsvBytesIdenticalTracedVsUntraced) {
  // The bench CSVs are derived from RunStats; write the fig3-style phase
  // breakdown from a traced run and an untraced run and require the files
  // to match byte-for-byte.
  const std::string dir = ::testing::TempDir() + "s3asim_obs_csv";
  ASSERT_EQ(::setenv("S3ASIM_RESULTS_DIR", dir.c_str(), 1), 0);
  auto config = test_config();

  const RunStats untraced = run_simulation(config);
  trace::TraceLog trace_log;
  obs::Registry registry;
  const RunStats traced = run_observed(config, &trace_log, &registry);

  bench::emit(bench::phase_table("untraced", "obs_off.csv", {"5"},
                                 std::span(&untraced, 1)));
  bench::emit(
      bench::phase_table("traced", "obs_on.csv", {"5"}, std::span(&traced, 1)));
  EXPECT_EQ(slurp(dir + "/obs_off.csv"), slurp(dir + "/obs_on.csv"));
  ASSERT_EQ(::unsetenv("S3ASIM_RESULTS_DIR"), 0);
}

}  // namespace
