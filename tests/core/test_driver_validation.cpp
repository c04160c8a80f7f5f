/// The driver's validation table: every feature combination that stays
/// unsupported fails before any simulated work, with an
/// std::invalid_argument whose message names each key involved.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "sim/time.hpp"

namespace {

using namespace s3asim::core;
using s3asim::sim::seconds;

SimConfig base_config() {
  auto config = test_config();  // 4 queries
  config.nprocs = 8;            // divisible by 1, 2, 4 and 8
  return config;
}

void enable_serving(SimConfig& config) {
  config.serving.arrival_rate_hz = 2.0;
}

void enable_elastic(SimConfig& config) {
  enable_serving(config);
  config.membership.elastic = true;
  config.membership.min_workers = 2;
}

void schedule_join(SimConfig& config) {
  config.membership.joins.push_back({2, seconds(1), ""});
}

struct Rejected {
  const char* combination;
  void (*apply)(SimConfig&);
  std::vector<std::string> keys;  ///< each must appear, quoted, in the error
};

TEST(DriverValidationTest, RejectsUnsupportedCombinationsNamingKeys) {
  const Rejected table[] = {
      {"groups = 0", [](SimConfig& c) { c.groups = 0; }, {"groups"}},
      {"groups not dividing nprocs", [](SimConfig& c) { c.groups = 3; },
       {"groups"}},
      {"fewer than 2 ranks per group", [](SimConfig& c) { c.groups = 8; },
       {"groups"}},
      {"more groups than queries",
       [](SimConfig& c) {
         c.groups = 2;
         c.workload.query_count = 1;
       },
       {"groups"}},
      {"groups with arrival_rate",
       [](SimConfig& c) {
         c.groups = 2;
         enable_serving(c);
       },
       {"groups", "arrival_rate"}},
      {"groups with arrival_trace",
       [](SimConfig& c) {
         c.groups = 2;
         c.serving.arrival_trace = "arrivals.csv";
       },
       {"groups", "arrival_trace"}},
      {"groups with joins",
       [](SimConfig& c) {
         c.groups = 2;
         schedule_join(c);
       },
       {"groups", "joins"}},
      {"groups with elastic",
       [](SimConfig& c) {
         c.groups = 2;
         enable_elastic(c);
       },
       {"groups", "elastic"}},
      {"groups with crash",
       [](SimConfig& c) {
         c.groups = 2;
         c.fault.crash_at = seconds(1);
       },
       {"groups", "crash"}},
      {"crash with joins",
       [](SimConfig& c) {
         c.fault.crash_at = seconds(1);
         schedule_join(c);
       },
       {"crash", "joins"}},
      {"crash with elastic",
       [](SimConfig& c) {
         c.fault.crash_at = seconds(1);
         enable_elastic(c);
       },
       {"crash", "elastic"}},
  };
  for (const Rejected& row : table) {
    SCOPED_TRACE(row.combination);
    SimConfig config = base_config();
    row.apply(config);
    try {
      (void)run_simulation(config);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      for (const std::string& key : row.keys)
        EXPECT_NE(message.find("'" + key + "'"), std::string::npos)
            << message;
    }
  }
}

TEST(DriverValidationTest, OneGroupWithServingRuns) {
  // groups = 1 is the plain run, so it composes with open-loop serving.
  SimConfig config = base_config();
  config.groups = 1;
  enable_serving(config);
  const RunStats stats = run_simulation(config);
  EXPECT_TRUE(stats.serving.enabled);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_TRUE(stats.file_exact) << stats.summary();
}

}  // namespace
