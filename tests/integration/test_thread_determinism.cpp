/// Cross-thread determinism suite: a run repeated on a new thread
/// (std::async with std::launch::async) must produce a byte-identical
/// RunStats::to_json().  A fresh thread starts with its own thread-local
/// host state (the coroutine frame pool first of all), so any leak of host
/// state into simulated results shows up here.  The scenarios cover every
/// strategy in both sync modes and each feature that changes the event
/// flow: hybrid groups, worker faults, crash/resume and open-loop serving.
/// The client cache (test_cache_identity.cpp) and membership scenarios
/// (tests/core/test_membership.cpp) carry the same assertion.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <utility>

#include "core/config.hpp"
#include "core/simulation.hpp"
#include "fault/fault.hpp"
#include "sim/time.hpp"

namespace {

using namespace s3asim;
using core::SimConfig;
using core::Strategy;

/// Runs `run` on a new thread and returns its result (or rethrows).
template <typename Run>
auto on_thread(Run run) {
  return std::async(std::launch::async, std::move(run)).get();
}

std::string stats_json(const SimConfig& config) {
  return core::run_simulation(config).to_json();
}

/// The calling thread's run and a separate thread's run agree byte for byte.
void expect_thread_invariant(const SimConfig& config) {
  const std::string here = stats_json(config);
  EXPECT_EQ(on_thread([&config] { return stats_json(config); }), here);
}

SimConfig small_config() {
  SimConfig config = core::test_config();
  config.nprocs = 8;
  return config;
}

/// Every strategy, with query sync on or off, is thread invariant.
void expect_all_strategies_thread_invariant(bool query_sync) {
  for (const Strategy strategy : core::kAllStrategies) {
    SimConfig config = small_config();
    config.strategy = strategy;
    config.query_sync = query_sync;
    SCOPED_TRACE(core::strategy_name(strategy));
    expect_thread_invariant(config);
  }
}

TEST(ThreadDeterminismTest, AllStrategiesAsync) {
  expect_all_strategies_thread_invariant(false);
}

TEST(ThreadDeterminismTest, AllStrategiesQuerySync) {
  expect_all_strategies_thread_invariant(true);
}

TEST(ThreadDeterminismTest, PaperConfig) {
  // The exact §3.3 setup the figures are built from.
  expect_thread_invariant(core::paper_config());
}

TEST(ThreadDeterminismTest, HybridSegmentation) {
  SimConfig config = small_config();
  config.groups = 2;
  expect_thread_invariant(config);
}

TEST(ThreadDeterminismTest, WorkerFault) {
  SimConfig config = small_config();
  config.fault.kills.push_back(fault::WorkerKill{2, sim::milliseconds(1)});
  expect_thread_invariant(config);
}

TEST(ThreadDeterminismTest, CrashResume) {
  SimConfig config = small_config();
  config.fault.crash_at = sim::milliseconds(2);
  EXPECT_TRUE(core::run_simulation(config).resume.crashed);
  expect_thread_invariant(config);
}

TEST(ThreadDeterminismTest, OpenLoopServing) {
  SimConfig config = small_config();
  config.serving.arrival_rate_hz = 2.0;
  expect_thread_invariant(config);
}

TEST(ThreadDeterminismTest, ConcurrentRunsAgree) {
  // Three runs of one config executing at the same time, two of them on
  // their own threads, all agree.
  const SimConfig config = small_config();
  const auto run = [&config] { return stats_json(config); };
  auto first = std::async(std::launch::async, run);
  auto second = std::async(std::launch::async, run);
  const std::string here = run();
  EXPECT_EQ(first.get(), here);
  EXPECT_EQ(second.get(), here);
}

}  // namespace
