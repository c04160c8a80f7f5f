#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/json.hpp"

namespace {

using s3asim::obs::Counter;
using s3asim::obs::Gauge;
using s3asim::obs::Histogram;
using s3asim::obs::Registry;
using s3asim::obs::Snapshot;
using s3asim::util::JsonValue;
using s3asim::util::JsonWriter;
using s3asim::util::parse_json;

TEST(CounterTest, AddValueReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge gauge;
  gauge.set(2.5);
  gauge.add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.set(0.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(HistogramTest, EmptyIsAllZero) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(50), 0.0);
}

TEST(HistogramTest, ExactStatsAreExact) {
  Histogram histogram;
  histogram.observe(1.0);
  histogram.observe(4.0);
  histogram.observe(16.0);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 21.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 16.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 7.0);
}

TEST(HistogramTest, PercentilesAreMonotoneAndClamped) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.observe(static_cast<double>(i));
  const double p50 = histogram.percentile(50);
  const double p95 = histogram.percentile(95);
  const double p99 = histogram.percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log2 buckets give at worst a 2x bracket around the true quantile.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 500.0);
  // Clamped to observed extremes, never extrapolated past max.
  EXPECT_LE(p99, 1000.0);
  // p0 lands in the first occupied bucket [1, 2); p100 clamps to max.
  EXPECT_GE(histogram.percentile(0), 1.0);
  EXPECT_LE(histogram.percentile(0), 2.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(100), 1000.0);
}

TEST(HistogramTest, SingleSampleAllPercentilesEqual) {
  Histogram histogram;
  histogram.observe(3.25e-6);
  EXPECT_DOUBLE_EQ(histogram.percentile(50), 3.25e-6);
  EXPECT_DOUBLE_EQ(histogram.percentile(99), 3.25e-6);
}

TEST(HistogramTest, TinyAndHugeValuesStayFinite) {
  Histogram histogram;
  histogram.observe(1e-13);  // nanosecond-scale seconds
  histogram.observe(1e13);   // tens-of-TB byte counts
  histogram.observe(0.0);    // zero lands in the bottom bucket
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_TRUE(std::isfinite(histogram.percentile(50)));
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 1e13);
}

TEST(RegistryTest, LookupCreatesAndReferencesAreStable) {
  Registry registry;
  Counter& counter = registry.counter("a.events");
  counter.add(3);
  // Creating many more metrics must not invalidate the first reference.
  for (int i = 0; i < 100; ++i)
    registry.counter("churn." + std::to_string(i)).add(1);
  counter.add(1);
  EXPECT_EQ(registry.counter("a.events").value(), 4u);
}

TEST(RegistryTest, SnapshotIsSortedAndComplete) {
  Registry registry;
  registry.counter("z.count").add(1);
  registry.counter("a.count").add(2);
  registry.gauge("m.level").set(0.5);
  registry.histogram("h.lat").observe(1.0);
  const Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.count");
  EXPECT_EQ(snapshot.counters[1].first, "z.count");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].first, "m.level");
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 0.5);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].first, "h.lat");
  EXPECT_EQ(snapshot.histograms[0].second.count, 1u);
}

TEST(RegistryTest, JsonRoundTrips) {
  Registry registry;
  registry.counter("pfs.write.requests").add(10);
  registry.gauge("pfs.busy_seconds").set(1.25);
  registry.histogram("pfs.write.service_seconds").observe(0.004);
  JsonWriter json;
  registry.write_json(json);
  const JsonValue root = parse_json(json.str());
  EXPECT_DOUBLE_EQ(root.at("counters").at("pfs.write.requests").as_number(),
                   10.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("pfs.busy_seconds").as_number(), 1.25);
  const JsonValue& histogram =
      root.at("histograms").at("pfs.write.service_seconds");
  EXPECT_DOUBLE_EQ(histogram.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.at("p99").as_number(), 0.004);
}

}  // namespace
