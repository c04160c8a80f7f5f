#pragma once

/// \file metrics.hpp
/// The cross-layer metrics registry: counters, gauges, and log2-bucketed
/// histograms (p50/p95/p99) published under stable dotted names
/// ("pfs.write.bytes", "sim.sched.queue_depth", ...).  One registry serves
/// a whole run; `snapshot()` is what benches and the CLI serialize into
/// `results/BENCH_*.json` and the per-run manifest.
///
/// Metrics are *host-side* observations: they never touch simulated time,
/// so attaching a registry cannot perturb a run (see DESIGN.md §8).  The
/// registry is single-threaded like the simulator; concurrent runs each
/// write their own.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace s3asim::util {
class JsonWriter;
}

namespace s3asim::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution of non-negative samples in power-of-two buckets: bucket i
/// covers [2^(i-kOffset), 2^(i-kOffset+1)), spanning ~3.6e-15 ... ~1.4e14 —
/// wide enough for nanosecond-scale service times in seconds and for byte
/// counts.  Percentiles interpolate inside the landing bucket and are
/// clamped to the exact observed [min, max].
class Histogram {
 public:
  static constexpr int kBuckets = 96;
  static constexpr int kOffset = 48;

  void observe(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Value at percentile `p` in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const noexcept;

 private:
  [[nodiscard]] static int bucket_of(double value) noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Point-in-time summary of one histogram.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of every metric, sorted by dotted name — the unit of
/// serialization (manifest "metrics" section) and of cross-checking against
/// the docs/OBSERVABILITY.md catalog.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;

  /// Writes the `{"counters":{...},"gauges":{...},"histograms":{...}}`
  /// object at the writer's current position.
  void write_json(util::JsonWriter& json) const;
};

/// Named-metric registry.  Lookup creates on first use; returned references
/// stay valid for the registry's lifetime (node-based storage).
class Registry {
 public:
  Counter& counter(std::string_view name) {
    return counters_[std::string(name)];
  }
  Gauge& gauge(std::string_view name) { return gauges_[std::string(name)]; }
  Histogram& histogram(std::string_view name) {
    return histograms_[std::string(name)];
  }

  [[nodiscard]] Snapshot snapshot() const;

  /// Serializes `snapshot()` at the writer's current position.
  void write_json(util::JsonWriter& json) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace s3asim::obs
