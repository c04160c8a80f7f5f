#include "core/serving.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.hpp"
#include "core/stats.hpp"
#include "core/workload.hpp"

namespace {

using namespace s3asim::core;

SimConfig serving_config() {
  auto config = test_config();
  config.workload.query_count = 12;
  config.serving.arrival_rate_hz = 2.0;
  return config;
}

// ---------------------------------------------------------------------------
// Arrival generation: the Poisson stream is part of the determinism
// contract — same (seed, serving config) => bit-identical arrivals.
// ---------------------------------------------------------------------------

TEST(ServingArrivalsTest, PoissonStreamIsDeterministic) {
  const auto config = serving_config();
  const auto first = generate_arrivals(config.serving, config.workload);
  const auto second = generate_arrivals(config.serving, config.workload);
  ASSERT_EQ(first.size(), config.workload.query_count);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t q = 0; q < first.size(); ++q) {
    EXPECT_EQ(first[q].at, second[q].at) << "arrival " << q;
    EXPECT_EQ(first[q].tenant, second[q].tenant) << "arrival " << q;
  }
}

TEST(ServingArrivalsTest, SeedChangesTheStream) {
  auto config = serving_config();
  const auto base = generate_arrivals(config.serving, config.workload);
  config.workload.seed += 1;
  const auto reseeded = generate_arrivals(config.serving, config.workload);
  ASSERT_EQ(base.size(), reseeded.size());
  bool any_difference = false;
  for (std::size_t q = 0; q < base.size(); ++q) {
    any_difference |= base[q].at != reseeded[q].at;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ServingArrivalsTest, ArrivalsSortedWithValidTenants) {
  auto config = serving_config();
  config.serving.tenants = parse_tenants("gold:rate=3|bronze:rate=1");
  const auto arrivals = generate_arrivals(config.serving, config.workload);
  ASSERT_EQ(arrivals.size(), config.workload.query_count);
  for (std::size_t q = 0; q < arrivals.size(); ++q) {
    EXPECT_GT(arrivals[q].at, 0);
    EXPECT_LT(arrivals[q].tenant, 2u);
    if (q > 0) {
      EXPECT_GE(arrivals[q].at, arrivals[q - 1].at);
    }
  }
}

TEST(ServingArrivalsTest, AggregateRateSplitsByTenantShares) {
  ServingConfig serving;
  serving.arrival_rate_hz = 4.0;
  serving.tenants = parse_tenants("a:rate=3|b:rate=1");
  const auto rates = tenant_rates(serving);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 3.0);
  EXPECT_DOUBLE_EQ(rates[1], 1.0);
}

// ---------------------------------------------------------------------------
// Admission queue policies.
// ---------------------------------------------------------------------------

std::vector<TenantConfig> two_tenants(double weight_a, double weight_b,
                                      std::uint32_t priority_a = 0,
                                      std::uint32_t priority_b = 0) {
  TenantConfig a;
  a.name = "a";
  a.weight = weight_a;
  a.priority = priority_a;
  TenantConfig b;
  b.name = "b";
  b.weight = weight_b;
  b.priority = priority_b;
  return {a, b};
}

TEST(AdmissionQueueTest, FifoPopsInAdmissionOrder) {
  AdmissionQueue queue(AdmitPolicy::Fifo, 8, two_tenants(1.0, 1.0));
  for (std::uint32_t q = 0; q < 6; ++q) {
    EXPECT_TRUE(queue.offer(q, q % 2, s3asim::sim::seconds(q)));
  }
  for (std::uint32_t q = 0; q < 6; ++q) {
    EXPECT_EQ(queue.pop().query, q);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.shed_total(), 0u);
}

TEST(AdmissionQueueTest, WeightedFairFavorsHeavyTenant) {
  // Tenant a has 3x the weight of b; with alternating a/b admissions the
  // start-time fair queue serves a's backlog 3:1 ahead of b's.
  AdmissionQueue queue(AdmitPolicy::WeightedFair, 16, two_tenants(3.0, 1.0));
  // Queries 0,2,4,6 belong to a; 1,3,5,7 to b.
  for (std::uint32_t q = 0; q < 8; ++q) {
    EXPECT_TRUE(queue.offer(q, q % 2, 0));
  }
  std::vector<std::uint32_t> tenant_order;
  while (!queue.empty()) tenant_order.push_back(queue.pop().tenant);
  const std::vector<std::uint32_t> expected = {0, 0, 1, 0, 0, 1, 1, 1};
  EXPECT_EQ(tenant_order, expected);
}

TEST(AdmissionQueueTest, EqualWeightsDegradeToFifo) {
  AdmissionQueue wfq(AdmitPolicy::WeightedFair, 16, two_tenants(1.0, 1.0));
  for (std::uint32_t q = 0; q < 6; ++q) {
    EXPECT_TRUE(wfq.offer(q, q % 2, 0));
  }
  for (std::uint32_t q = 0; q < 6; ++q) {
    EXPECT_EQ(wfq.pop().query, q);
  }
}

TEST(AdmissionQueueTest, PriorityClassesPreempt) {
  // b is the high-priority class (lower number = served first); within a
  // class the order stays FIFO.
  AdmissionQueue queue(AdmitPolicy::Priority, 16, two_tenants(1.0, 1.0, 1, 0));
  for (std::uint32_t q = 0; q < 6; ++q) {
    EXPECT_TRUE(queue.offer(q, q % 2, 0));
  }
  std::vector<std::uint32_t> order;
  while (!queue.empty()) order.push_back(queue.pop().query);
  const std::vector<std::uint32_t> expected = {1, 3, 5, 0, 2, 4};
  EXPECT_EQ(order, expected);
}

TEST(AdmissionQueueTest, ShedsBeyondDepthAndCountsPerTenant) {
  AdmissionQueue queue(AdmitPolicy::Fifo, 2, two_tenants(1.0, 1.0));
  EXPECT_TRUE(queue.offer(0, 0, 0));
  EXPECT_TRUE(queue.offer(1, 1, 0));
  EXPECT_FALSE(queue.offer(2, 1, 0));  // full: shed
  EXPECT_FALSE(queue.offer(3, 1, 0));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.shed_total(), 2u);
  EXPECT_EQ(queue.shed_by_tenant()[0], 0u);
  EXPECT_EQ(queue.shed_by_tenant()[1], 2u);
  (void)queue.pop();
  EXPECT_TRUE(queue.offer(4, 0, 0));  // a pop frees a slot again
  EXPECT_EQ(queue.shed_total(), 2u);
}

// ---------------------------------------------------------------------------
// End-to-end serving runs.
// ---------------------------------------------------------------------------

TEST(ServingRunTest, ServesFullStreamBelowCapacity) {
  auto config = serving_config();
  config.serving.arrival_rate_hz = 0.5;  // well below capacity: no shedding
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  ASSERT_TRUE(stats.serving.enabled);
  EXPECT_EQ(stats.serving.overall.offered, config.workload.query_count);
  EXPECT_EQ(stats.serving.overall.shed, 0u);
  EXPECT_EQ(stats.serving.overall.completed, config.workload.query_count);
  EXPECT_GT(stats.serving.overall.p50_seconds, 0.0);
  EXPECT_GE(stats.serving.overall.p99_seconds,
            stats.serving.overall.p50_seconds);
  EXPECT_GT(stats.serving.goodput_qps, 0.0);
}

TEST(ServingRunTest, OverloadShedsButStaysExact) {
  auto config = serving_config();
  config.workload.query_count = 30;
  config.serving.arrival_rate_hz = 50.0;  // far past capacity
  config.serving.admit_depth = 2;
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  EXPECT_GT(stats.serving.overall.shed, 0u);
  EXPECT_EQ(stats.serving.overall.completed + stats.serving.overall.shed,
            stats.serving.overall.offered);
  // Shed queries never dispatch, so the output file only holds completed
  // queries' results — and still covers itself exactly.
  EXPECT_EQ(stats.serving.overall.offered, 30u);
}

TEST(ServingRunTest, RunsAreBitIdenticalAcrossConcurrentReplicas) {
  // The CLI's --jobs gate relies on this: a serving run's full statistics
  // JSON (arrivals, latencies, shed counts) must not depend on host
  // scheduling.  Run one replica on this thread and one on another.
  const auto config = serving_config();
  std::string other;
  std::thread replica(
      [&other, config] { other = run_simulation(config).to_json(); });
  const std::string mine = run_simulation(config).to_json();
  replica.join();
  EXPECT_EQ(mine, other);
}

TEST(ServingRunTest, PerTenantAccountingSumsToOverall) {
  auto config = serving_config();
  config.serving.tenants = parse_tenants("gold:rate=2,weight=3|bronze:rate=1");
  config.serving.policy = AdmitPolicy::WeightedFair;
  const auto stats = run_simulation(config);
  ASSERT_EQ(stats.serving.tenants.size(), 2u);
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  for (const auto& tenant : stats.serving.tenants) {
    offered += tenant.offered;
    completed += tenant.completed;
    shed += tenant.shed;
  }
  EXPECT_EQ(offered, stats.serving.overall.offered);
  EXPECT_EQ(completed, stats.serving.overall.completed);
  EXPECT_EQ(shed, stats.serving.overall.shed);
}

TEST(ServingRunTest, BackpressureBoundsInflightBytes) {
  auto config = serving_config();
  config.serving.arrival_rate_hz = 20.0;
  config.serving.inflight_watermark_bytes = 64 * 1024;
  const auto stats = run_simulation(config);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
  // Dispatch pauses at the watermark, so the peak overshoots by at most
  // the single region admitted while below it.
  const WorkloadModel workload(config.workload);
  std::uint64_t largest_region = 0;
  for (std::uint32_t q = 0; q < config.workload.query_count; ++q) {
    largest_region = std::max(largest_region, workload.query(q).total_bytes);
  }
  EXPECT_GT(stats.serving.inflight_peak_bytes, 0u);
  EXPECT_LT(stats.serving.inflight_peak_bytes,
            config.serving.inflight_watermark_bytes + largest_region);
}

TEST(ServingRunTest, ClosedBatchKeepsServingStatsSilent) {
  const auto stats = run_simulation(test_config());
  EXPECT_FALSE(stats.serving.enabled);
  EXPECT_EQ(stats.to_json().find("\"serving\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Configuration validation.
// ---------------------------------------------------------------------------

TEST(ServingValidationTest, RequiresPerQueryFlush) {
  auto config = serving_config();
  config.queries_per_flush = 4;
  EXPECT_THROW((void)run_simulation(config), std::invalid_argument);
}

TEST(ServingValidationTest, RejectsFaultPlans) {
  auto config = serving_config();
  config.fault.kills.push_back({2, s3asim::sim::seconds(1)});
  EXPECT_THROW((void)run_simulation(config), std::invalid_argument);
}

TEST(ServingValidationTest, ClosedBatchDriversRejectServing) {
  // Hybrid groups and crash/resume both replay a closed query batch.
  auto grouped = serving_config();
  grouped.nprocs = 8;  // two valid groups, so serving is the only conflict
  grouped.groups = 2;
  EXPECT_THROW((void)run_simulation(grouped), std::invalid_argument);
  auto crashed = serving_config();
  crashed.fault.crash_at = s3asim::sim::seconds(1);
  EXPECT_THROW((void)run_simulation(crashed), std::invalid_argument);
}

TEST(ServingValidationTest, RejectsDegenerateTenantSets) {
  auto config = serving_config();
  config.serving.tenants = parse_tenants("a:rate=0|b:rate=0");
  EXPECT_THROW(validate_serving(config), std::invalid_argument);
  config.serving.tenants = parse_tenants("a:weight=0");
  EXPECT_THROW(validate_serving(config), std::invalid_argument);
}

}  // namespace
