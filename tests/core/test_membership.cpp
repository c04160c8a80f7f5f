/// Membership tests: WorkerRegistry lifecycle properties, join-mid-run
/// determinism across threads, elastic autoscaling, the elastic × fault
/// composition, and the speed-class heterogeneity model.

#include "core/membership.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.hpp"
#include "core/stats.hpp"
#include "fault/fault.hpp"
#include "util/rng.hpp"

namespace {

using namespace s3asim::core;
namespace fault = s3asim::fault;
namespace sim = s3asim::sim;
namespace util = s3asim::util;

std::vector<s3asim::mpi::Rank> workers_of(std::uint32_t nprocs) {
  std::vector<s3asim::mpi::Rank> workers;
  for (std::uint32_t rank = 1; rank < nprocs; ++rank) workers.push_back(rank);
  return workers;
}

/// The run's stats rendered on a new thread: a fresh thread-local frame
/// pool and no host state shared with the calling thread.
std::string json_on_thread(const SimConfig& config) {
  return std::async(std::launch::async,
                    [&config] { return run_simulation(config).to_json(); })
      .get();
}

// ---------------------------------------------------------------------------
// Registry lifecycle properties.
// ---------------------------------------------------------------------------

TEST(WorkerRegistryTest, FixedClusterStartsFullyActive) {
  const MembershipConfig membership;
  const WorkerRegistry registry(membership, workers_of(5), 1, 0.0);
  EXPECT_EQ(registry.epoch(), 0u);
  EXPECT_EQ(registry.active_count(), 4u);
  EXPECT_EQ(registry.participant_count(), 4u);
  EXPECT_EQ(registry.peak_active(), 4u);
  for (const WorkerRecord& record : registry.records()) {
    EXPECT_EQ(record.state, WorkerLifecycle::Active);
    EXPECT_DOUBLE_EQ(record.speed_factor, 1.0);
    EXPECT_FALSE(record.initially_standby);
    EXPECT_TRUE(registry.is_dispatchable(record.rank));
  }
}

TEST(WorkerRegistryTest, RecordRejectsNonMembers) {
  // A sparse worker set: ranks below, between and past the members are not
  // workers of this group, and each lookup names the rank it rejects.
  const MembershipConfig membership;
  const WorkerRegistry registry(membership, {1, 3, 5}, 1, 0.0);
  for (const s3asim::mpi::Rank rank : {0u, 2u, 6u, 1000u}) {
    try {
      (void)registry.record(rank);
      ADD_FAILURE() << "record(" << rank << ") did not throw";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what())
                    .find("rank " + std::to_string(rank) + " is not a worker"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_EQ(registry.record(3).rank, 3u);
}

TEST(WorkerRegistryTest, EpochBumpsOnEveryAcceptedTransitionOnly) {
  MembershipConfig membership;
  membership.joins.push_back({4, sim::seconds(1), ""});
  WorkerRegistry registry(membership, workers_of(5), 1, 0.0);
  EXPECT_EQ(registry.state(4), WorkerLifecycle::Standby);
  EXPECT_FALSE(registry.is_dispatchable(4));

  std::uint64_t epoch = registry.epoch();
  // Invalid transitions are rejected and leave the epoch untouched.
  EXPECT_FALSE(registry.activate(4, sim::seconds(1)));
  EXPECT_FALSE(registry.begin_drain(4, sim::seconds(1)));
  EXPECT_FALSE(registry.complete_drain(4, sim::seconds(1)));
  EXPECT_EQ(registry.epoch(), epoch);

  // The canonical path bumps it once per accepted step, monotonically.
  EXPECT_TRUE(registry.begin_join(4, sim::seconds(1)));
  EXPECT_EQ(registry.epoch(), ++epoch);
  EXPECT_TRUE(registry.activate(4, sim::seconds(2)));
  EXPECT_EQ(registry.epoch(), ++epoch);
  EXPECT_TRUE(registry.begin_drain(4, sim::seconds(3)));
  EXPECT_EQ(registry.epoch(), ++epoch);
  EXPECT_TRUE(registry.complete_drain(4, sim::seconds(4)));
  EXPECT_EQ(registry.epoch(), ++epoch);
  EXPECT_EQ(registry.state(4), WorkerLifecycle::Departed);
  EXPECT_EQ(registry.joins_completed(), 1u);
  EXPECT_EQ(registry.drains_completed(), 1u);
  ASSERT_EQ(registry.join_latencies().size(), 1u);
  EXPECT_DOUBLE_EQ(registry.join_latencies()[0], 1.0);
}

TEST(WorkerRegistryTest, OnlyActiveWorkersAreDispatchable) {
  MembershipConfig membership;
  membership.joins.push_back({3, sim::seconds(1), ""});
  WorkerRegistry registry(membership, workers_of(5), 1, 0.0);

  EXPECT_FALSE(registry.is_dispatchable(3));  // Standby
  EXPECT_TRUE(registry.begin_join(3, sim::seconds(1)));
  EXPECT_FALSE(registry.is_dispatchable(3));  // Joining
  EXPECT_TRUE(registry.activate(3, sim::seconds(1)));
  EXPECT_TRUE(registry.is_dispatchable(3));  // Active
  EXPECT_TRUE(registry.begin_drain(3, sim::seconds(2)));
  EXPECT_FALSE(registry.is_dispatchable(3));  // Draining
  EXPECT_TRUE(registry.complete_drain(3, sim::seconds(3)));
  EXPECT_FALSE(registry.is_dispatchable(3));  // Departed
  EXPECT_TRUE(registry.mark_dead(1, sim::seconds(3)));
  EXPECT_FALSE(registry.is_dispatchable(1));  // Dead
}

TEST(WorkerRegistryTest, DeathIsFirstWinsFromAnyLiveState) {
  const MembershipConfig membership;
  WorkerRegistry registry(membership, workers_of(5), 1, 0.0);
  EXPECT_TRUE(registry.mark_dead(2, sim::seconds(1)));
  // The detector retiring the same worker later is deduplicated.
  EXPECT_FALSE(registry.mark_dead(2, sim::seconds(5)));
  EXPECT_EQ(registry.record(2).left_at, sim::seconds(1));
  EXPECT_EQ(registry.count(WorkerLifecycle::Dead), 1u);
  EXPECT_EQ(registry.active_count(), 3u);
}

TEST(WorkerRegistryTest, StandbyPickIsLowestRankAndSkipsScheduledJoiners) {
  MembershipConfig membership;
  membership.elastic = true;
  membership.min_workers = 1;
  membership.joins.push_back({2, sim::seconds(9), ""});
  WorkerRegistry registry(membership, workers_of(6), 1, 0.0);
  // Workers 2..5 start Standby (min_workers = 1 keeps only worker 1
  // active); worker 2 is reserved for its scheduled join, so the elastic
  // pool starts at worker 3.
  ASSERT_TRUE(registry.pick_standby().has_value());
  EXPECT_EQ(*registry.pick_standby(), 3u);
  EXPECT_TRUE(registry.begin_join(3, sim::seconds(1)));
  EXPECT_EQ(*registry.pick_standby(), 4u);
}

TEST(WorkerRegistryTest, DrainCandidateIsMostRecentlyActivated) {
  MembershipConfig membership;
  membership.elastic = true;
  membership.min_workers = 1;
  WorkerRegistry registry(membership, workers_of(5), 1, 0.0);
  EXPECT_TRUE(registry.begin_join(2, sim::seconds(1)));
  EXPECT_TRUE(registry.activate(2, sim::seconds(1)));
  EXPECT_TRUE(registry.begin_join(3, sim::seconds(2)));
  EXPECT_TRUE(registry.activate(3, sim::seconds(2)));
  // LIFO scale-down: the newest member goes first; the founding member
  // (join_completed = 0) goes last.
  ASSERT_TRUE(registry.pick_drain_candidate().has_value());
  EXPECT_EQ(*registry.pick_drain_candidate(), 3u);
  EXPECT_TRUE(registry.begin_drain(3, sim::seconds(3)));
  EXPECT_EQ(*registry.pick_drain_candidate(), 2u);
  EXPECT_TRUE(registry.begin_drain(2, sim::seconds(3)));
  EXPECT_EQ(*registry.pick_drain_candidate(), 1u);
}

TEST(WorkerRegistryTest, WorkerSecondsSumParticipantSpans) {
  MembershipConfig membership;
  membership.joins.push_back({4, sim::seconds(2), ""});
  WorkerRegistry registry(membership, workers_of(5), 1, 0.0);
  EXPECT_TRUE(registry.begin_join(4, sim::seconds(2)));
  EXPECT_TRUE(registry.activate(4, sim::seconds(3)));
  EXPECT_TRUE(registry.mark_dead(1, sim::seconds(5)));
  // Workers 2 and 3: 0..10; worker 1: 0..5; worker 4: 3..10.
  EXPECT_DOUBLE_EQ(registry.worker_seconds(sim::seconds(10)), 32.0);
}

TEST(WorkerRegistryTest, ClassPatternAssignsRoundRobinWithCounts) {
  MembershipConfig membership;
  membership.classes.push_back({"standard", 1.0, 3});
  membership.classes.push_back({"accel", 4.0, 1});
  const WorkerRegistry registry(membership, workers_of(9), 1, 0.0);
  // Pattern: standard ×3, accel ×1, repeating over workers 1..8.
  const std::vector<double> expected = {1.0, 1.0, 1.0, 4.0,
                                        1.0, 1.0, 1.0, 4.0};
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_DOUBLE_EQ(registry.records()[i].speed_factor, expected[i])
        << "worker " << i + 1;
}

TEST(WorkerRegistryTest, JitterFactorReproducesLegacyFormulaExactly) {
  const std::uint64_t seed = 20060627;
  const double jitter = 0.25;
  const MembershipConfig membership;
  const WorkerRegistry registry(membership, workers_of(5), seed, jitter);
  for (std::uint32_t rank = 1; rank < 5; ++rank) {
    // The pre-registry per-rank heterogeneity formula, verbatim.
    util::Xoshiro256 rng(util::hash_combine(seed ^ 0x48e7e601ULL, rank));
    const double expected = 1.0 + jitter * (2.0 * rng.uniform() - 1.0);
    EXPECT_DOUBLE_EQ(registry.speed_factor(rank), expected) << "rank " << rank;
  }
}

// ---------------------------------------------------------------------------
// Spec parsing properties beyond the loader tests.
// ---------------------------------------------------------------------------

TEST(MembershipParseTest, ClassSpecRoundTrips) {
  const auto classes =
      parse_worker_classes(" standard : speed=1 , count=3 | accel:speed=4 ");
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].name, "standard");
  EXPECT_EQ(classes[0].count, 3u);
  EXPECT_EQ(classes[1].name, "accel");
  EXPECT_EQ(classes[1].count, 1u);  // count defaults to 1
  EXPECT_DOUBLE_EQ(classes[1].speed, 4.0);
}

TEST(MembershipParseTest, JoinSpecAcceptsClassOverride) {
  const auto joins = parse_joins("worker=4,at=2s,class=accel");
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0].rank, 4u);
  EXPECT_EQ(joins[0].at, sim::seconds(2));
  EXPECT_EQ(joins[0].speed_class, "accel");
}

// ---------------------------------------------------------------------------
// Join-mid-run determinism: one scheduled joiner, identical statistics on
// the calling thread, concurrent replicas (the --jobs path), and a fresh
// thread.
// ---------------------------------------------------------------------------

SimConfig join_config() {
  auto config = test_config();
  config.membership.joins = parse_joins("worker=4,at=200ms");
  return config;
}

TEST(MembershipDeterminismTest, ScheduledJoinIdenticalAcrossThreads) {
  const auto config = join_config();
  const std::string serial = run_simulation(config).to_json();

  std::string replica;
  std::thread concurrent(
      [&replica, config] { replica = run_simulation(config).to_json(); });
  const std::string mine = run_simulation(config).to_json();
  concurrent.join();
  EXPECT_EQ(serial, mine);
  EXPECT_EQ(serial, replica);
  EXPECT_EQ(serial, json_on_thread(config));
}

TEST(MembershipTest, ScheduledJoinerParticipatesAndVerifies) {
  const auto stats = run_simulation(join_config());
  EXPECT_TRUE(stats.file_exact);
  EXPECT_TRUE(stats.membership.enabled);
  EXPECT_EQ(stats.membership.joins, 1u);
  EXPECT_EQ(stats.membership.participants, 4u);
  EXPECT_EQ(stats.membership.peak_active, 4u);
  EXPECT_EQ(stats.membership.epoch, 2u);  // begin_join + activate
  EXPECT_GT(stats.membership.join_latency_max_seconds, 0.0);
  EXPECT_GT(stats.ranks[4].tasks_processed, 0u);
  // The joiner was absent early, so it cannot dominate the task counts.
  EXPECT_LT(stats.ranks[4].tasks_processed, stats.ranks[1].tasks_processed);
}

TEST(MembershipTest, JoinerStagesItsFragmentUnderDatabaseIo) {
  auto config = join_config();
  config.workload.database_bytes = 4 * 1024 * 1024;
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact);
  EXPECT_EQ(stats.membership.joins, 1u);
  // The Welcome handler pre-stages fragment (rank % fragments) before the
  // first request, so the joiner streams at least one fragment.
  EXPECT_GT(stats.ranks[4].fragment_loads, 0u);
}

// ---------------------------------------------------------------------------
// Elastic serving: the autoscaler grows from min_workers and drains back;
// outstanding work always completes (drain-on-request), and the run stays
// deterministic across threads.
// ---------------------------------------------------------------------------

SimConfig elastic_config() {
  auto config = test_config();
  config.workload.query_count = 12;
  config.serving.arrival_rate_hz = 40.0;
  config.membership.elastic = true;
  config.membership.min_workers = 1;
  config.membership.autoscale_target = 2.0;
  config.membership.autoscale_cooldown = sim::milliseconds(20);
  return config;
}

TEST(ElasticTest, AutoscalerGrowsAndDrainsDeterministically) {
  const auto config = elastic_config();
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact);
  EXPECT_TRUE(stats.serving.enabled);
  EXPECT_EQ(stats.serving.overall.completed, 12u);
  EXPECT_TRUE(stats.membership.enabled);
  EXPECT_GT(stats.membership.joins, 0u);
  EXPECT_GT(stats.membership.drains, 0u);
  EXPECT_GT(stats.membership.peak_active, 1u);
  // Cooldown-paced drains head back toward the floor; the teardown
  // Finish releases whatever the cooldown hadn't drained yet.
  EXPECT_LT(stats.membership.final_active, stats.membership.peak_active);
  EXPECT_GT(stats.membership.worker_seconds, 0.0);
  // Provisioning cost stays below the static-peak envelope.
  EXPECT_LT(stats.membership.worker_seconds,
            stats.wall_seconds * stats.membership.peak_active);

  EXPECT_EQ(stats.to_json(), json_on_thread(config));
}

TEST(ElasticTest, GoldenElasticRow) {
  // Pinned end-to-end elastic run (the membership analog of
  // test_golden_stats.cpp): any change to the autoscaler, the join
  // handshake, or the drain path must be a conscious diff here.
  const auto stats = run_simulation(elastic_config());
  EXPECT_TRUE(stats.file_exact);
  EXPECT_NEAR(stats.wall_seconds, 2.999240647, 1e-9);
  EXPECT_EQ(stats.events, 6777u);
  EXPECT_EQ(stats.membership.epoch, 8u);
  EXPECT_EQ(stats.membership.joins, 3u);
  EXPECT_EQ(stats.membership.drains, 1u);
  EXPECT_NEAR(stats.membership.worker_seconds, 11.616695029, 1e-9);
}

TEST(ElasticTest, NeverSummonedStandbysAreReleasedCleanly) {
  auto config = elastic_config();
  // A tiny offered load keeps the queue below target: nobody joins.
  config.workload.query_count = 2;
  config.serving.arrival_rate_hz = 0.5;
  config.membership.autoscale_target = 64.0;
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact);
  EXPECT_EQ(stats.membership.joins, 0u);
  EXPECT_EQ(stats.membership.participants, 1u);
  EXPECT_EQ(stats.serving.overall.completed, 2u);
}

// ---------------------------------------------------------------------------
// Membership × fault composition (closed batch): a scheduled joiner that
// is later killed exercises join-then-die; the work is reassigned and the
// output still verifies.
// ---------------------------------------------------------------------------

TEST(MembershipFaultTest, JoinerKilledAfterJoiningIsReassigned) {
  auto config = test_config();
  config.workload.query_count = 8;
  config.membership.joins = parse_joins("worker=4,at=100ms");
  config.fault = fault::parse_fault_plan("kill:worker=4,at=600ms");
  config.fault_detection_timeout = sim::seconds(1);
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact);
  EXPECT_EQ(stats.membership.joins, 1u);
  EXPECT_EQ(stats.membership.deaths, 1u);
  EXPECT_EQ(stats.membership.epoch, 3u);  // join + activate + death
  EXPECT_EQ(stats.faults.workers_died, 1u);
  EXPECT_GE(stats.faults.tasks_reassigned, 0u);
}

TEST(MembershipFaultTest, KillBeforeScheduledJoinRejected) {
  auto config = test_config();
  config.membership.joins = parse_joins("worker=4,at=1s");
  config.fault = fault::parse_fault_plan("kill:worker=4,at=500ms");
  EXPECT_THROW((void)run_simulation(config), std::exception);
}

// ---------------------------------------------------------------------------
// Heterogeneous speed classes end-to-end.
// ---------------------------------------------------------------------------

SimConfig heterogeneous_config() {
  auto config = test_config();
  config.membership.classes =
      parse_worker_classes("standard:speed=1,count=3|accel:speed=4,count=1");
  return config;
}

TEST(SpeedClassTest, FasterClassProcessesMoreTasks) {
  const auto stats = run_simulation(heterogeneous_config());
  EXPECT_TRUE(stats.file_exact);
  EXPECT_TRUE(stats.membership.enabled);
  ASSERT_EQ(stats.membership.classes.size(), 2u);
  EXPECT_EQ(stats.membership.classes[0].workers, 3u);
  EXPECT_EQ(stats.membership.classes[1].workers, 1u);
  EXPECT_DOUBLE_EQ(stats.membership.speed_max, 4.0);
  // Worker 4 is the accelerator: 4× the search speed must show up as a
  // task-count lead over every standard-class worker.
  for (std::uint32_t rank = 1; rank <= 3; ++rank)
    EXPECT_GT(stats.ranks[4].tasks_processed, stats.ranks[rank].tasks_processed)
        << "rank " << rank;
}

TEST(SpeedClassTest, SpeedAwareDispatchBeatsBlindOnMakespan) {
  auto aware = heterogeneous_config();
  auto blind = heterogeneous_config();
  blind.membership.speed_aware = false;
  const auto aware_stats = run_simulation(aware);
  const auto blind_stats = run_simulation(blind);
  EXPECT_TRUE(aware_stats.file_exact);
  EXPECT_TRUE(blind_stats.file_exact);
  // Speed-aware sizing (big fragments to fast workers) must not lose to
  // blind FCFS on the same cluster.
  EXPECT_LE(aware_stats.wall_seconds, blind_stats.wall_seconds * 1.005);
}

TEST(SpeedClassTest, HeterogeneousRunIdenticalAcrossThreads) {
  const auto config = heterogeneous_config();
  EXPECT_EQ(run_simulation(config).to_json(), json_on_thread(config));
}

TEST(SpeedClassTest, HomogeneousRunEmitsNoMembershipBlock) {
  const auto stats = run_simulation(test_config());
  EXPECT_FALSE(stats.membership.enabled);
  EXPECT_EQ(stats.to_json().find("\"membership\""), std::string::npos);
}

}  // namespace
