#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/json.hpp"

namespace s3asim::obs {

int Histogram::bucket_of(double value) noexcept {
  if (!(value > 0.0)) return 0;  // zero, negative, NaN -> underflow bucket
  int exp = 0;
  std::frexp(value, &exp);  // value in [2^(exp-1), 2^exp)
  const int index = exp - 1 + kOffset;
  return std::clamp(index, 0, kBuckets - 1);
}

void Histogram::observe(double value) noexcept {
  if (std::isnan(value)) return;
  ++buckets_[static_cast<std::size_t>(bucket_of(value))];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  const auto rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(target)));
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= rank) {
      const double lo = std::ldexp(1.0, i - kOffset);
      const double fraction = static_cast<double>(rank - cumulative) /
                              static_cast<double>(in_bucket);
      const double estimate = lo + lo * fraction;  // within [lo, 2*lo)
      return std::clamp(estimate, min_, max_);
    }
    cumulative += in_bucket;
  }
  return max_;
}

void Snapshot::write_json(util::JsonWriter& json) const {
  json.begin_object();
  json.key("counters");
  json.begin_object();
  for (const auto& [name, value] : counters) {
    json.key(name);
    json.value(value);
  }
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& [name, value] : gauges) {
    json.key(name);
    json.value(value);
  }
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& [name, h] : histograms) {
    json.key(name);
    json.begin_object();
    json.key("count");
    json.value(h.count);
    json.key("sum");
    json.value(h.sum);
    json.key("mean");
    json.value(h.mean);
    json.key("min");
    json.value(h.min);
    json.key("max");
    json.value(h.max);
    json.key("p50");
    json.value(h.p50);
    json.key("p95");
    json.value(h.p95);
    json.key("p99");
    json.value(h.p99);
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_)
    snap.counters.emplace_back(name, counter.value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_)
    snap.gauges.emplace_back(name, gauge.value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSummary summary;
    summary.count = h.count();
    summary.sum = h.sum();
    summary.mean = h.mean();
    summary.min = h.min();
    summary.max = h.max();
    summary.p50 = h.percentile(50.0);
    summary.p95 = h.percentile(95.0);
    summary.p99 = h.percentile(99.0);
    snap.histograms.emplace_back(name, summary);
  }
  return snap;
}

void Registry::write_json(util::JsonWriter& json) const {
  snapshot().write_json(json);
}

}  // namespace s3asim::obs
