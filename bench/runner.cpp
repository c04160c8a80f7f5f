#include "bench/runner.hpp"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "core/simulation.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace s3asim::bench {
namespace {

std::int64_t peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss);  // KiB on Linux
}

unsigned parse_jobs(const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 1 || value > 1024)
    throw std::runtime_error(std::string("invalid job count for --jobs: \"") +
                             text + "\" (want 1..1024)");
  return static_cast<unsigned>(value);
}

}  // namespace

std::vector<SweepResult> run_sweep(const std::vector<Point>& grid,
                                   unsigned jobs) {
  std::vector<SweepResult> results(grid.size());
  std::vector<std::exception_ptr> errors(grid.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};

  const auto worker = [&] {
    for (;;) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= grid.size() || failed.load(std::memory_order_relaxed))
        return;
      SweepResult& out = results[index];
      out.label = grid[index].label;
      const auto start = std::chrono::steady_clock::now();
      try {
        out.stats = core::run_simulation(grid[index].config);
        require_exact(out.stats);
      } catch (...) {
        errors[index] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      out.host_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      out.peak_rss_kb = peak_rss_kb();
    }
  };

  if (jobs <= 1 || grid.size() <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) threads.emplace_back(worker);
    for (auto& thread : threads) thread.join();
  }

  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  return results;
}

void require_exact(const core::RunStats& stats) {
  if (!stats.file_exact) {
    std::cerr << "FATAL: output-file verification failed: " << stats.summary()
              << '\n';
    std::abort();
  }
}

std::string csv_path(const std::string& name) {
  const char* override_dir = std::getenv("S3ASIM_RESULTS_DIR");
  const std::filesystem::path dir =
      override_dir != nullptr && override_dir[0] != '\0'
          ? std::filesystem::path(override_dir)
          : std::filesystem::path("results");
  // Best effort: a failure surfaces when the file is opened.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return (dir / name).string();
}

Table::Table(std::string heading, std::string file,
             std::vector<std::string> columns)
    : title(std::move(heading)),
      csv(std::move(file)),
      header(std::move(columns)) {}

void Table::add(std::string label, const std::vector<double>& values) {
  std::vector<std::string> cells{std::move(label)};
  for (const double value : values)
    cells.push_back(util::format_fixed(value, 6));
  rows.push_back(std::move(cells));
}

void emit(const Table& table) {
  const std::string path = csv_path(table.csv);
  util::CsvWriter csv(path);
  util::TextTable text(table.header);
  csv.write_row(table.header);
  for (const auto& row : table.rows) {
    csv.write_row(row);
    text.add_row(row);
  }
  if (!table.title.empty()) std::printf("\n== %s ==\n", table.title.c_str());
  std::printf("%s(csv: %s)\n", text.render().c_str(), path.c_str());
}

Table phase_table(std::string title, std::string csv,
                  const std::vector<std::string>& x_values,
                  std::span<const core::RunStats> runs) {
  Table table(std::move(title), std::move(csv), {"phase"});
  table.header.insert(table.header.end(), x_values.begin(), x_values.end());
  std::vector<double> row(runs.size());
  for (const auto phase : core::all_phases()) {
    for (std::size_t i = 0; i < runs.size(); ++i)
      row[i] = runs[i].worker_mean_seconds(phase);
    table.add(core::phase_name(phase), row);
  }
  for (std::size_t i = 0; i < runs.size(); ++i) row[i] = runs[i].wall_seconds;
  table.add("overall", row);
  return table;
}

Runner::Runner(std::string scenario, unsigned jobs)
    : scenario_(std::move(scenario)), jobs_(jobs) {}

std::vector<core::RunStats> Runner::run(const std::vector<Point>& grid) {
  const auto start = std::chrono::steady_clock::now();
  auto results = run_sweep(grid, jobs_);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  host_seconds_ += elapsed.count();
  std::vector<core::RunStats> stats;
  stats.reserve(results.size());
  for (auto& result : results) {
    stats.push_back(result.stats);
    results_.push_back(std::move(result));
  }
  return stats;
}

void Runner::gate(bool passed, std::string verdict) {
  std::printf("gate %s: %s\n", passed ? "passed" : "FAILED", verdict.c_str());
  if (!passed) failed_gates_.push_back(std::move(verdict));
}

std::string Runner::write_json() const {
  if (results_.empty()) return {};
  util::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value(scenario_);
  json.key("jobs");
  json.value(static_cast<std::uint64_t>(jobs_));

  double sim_total = 0.0;
  std::uint64_t events_total = 0;
  json.key("points");
  json.begin_array();
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const SweepResult& point = results_[i];
    json.begin_object();
    json.key("index");
    json.value(static_cast<std::uint64_t>(i));
    json.key("label");
    json.value(point.label);
    json.key("strategy");
    json.value(core::strategy_name(point.stats.strategy));
    json.key("nprocs");
    json.value(static_cast<std::uint64_t>(point.stats.nprocs));
    json.key("query_sync");
    json.value(point.stats.query_sync);
    json.key("compute_speed");
    json.value(point.stats.compute_speed);
    json.key("sim_seconds");
    json.value(point.stats.wall_seconds);
    json.key("host_seconds");
    json.value(point.host_seconds);
    json.key("events");
    json.value(point.stats.events);
    json.key("events_per_sec");
    json.value(point.host_seconds > 0.0
                   ? static_cast<double>(point.stats.events) /
                         point.host_seconds
                   : 0.0);
    json.key("peak_rss_kb");
    json.value(static_cast<std::int64_t>(point.peak_rss_kb));
    json.end_object();
    sim_total += point.stats.wall_seconds;
    events_total += point.stats.events;
  }
  json.end_array();

  json.key("totals");
  json.begin_object();
  json.key("points");
  json.value(static_cast<std::uint64_t>(results_.size()));
  json.key("sim_seconds");
  json.value(sim_total);
  json.key("host_seconds");
  json.value(host_seconds_);
  json.key("events");
  json.value(events_total);
  json.key("peak_rss_kb");
  json.value(peak_rss_kb());
  json.end_object();

  if (metrics != nullptr) {
    json.key("metrics");
    metrics->write_json(json);
  }
  json.end_object();

  const std::string path = csv_path("BENCH_" + scenario_ + ".json");
  std::ofstream out(path, std::ios::trunc);
  out << json.str() << '\n';
  return path;
}

Options parse_args(int argc, char** argv, std::span<const Scenario> table) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs") {
      if (i + 1 == argc) throw std::runtime_error("--jobs needs a value");
      options.jobs = parse_jobs(argv[++i]);
    } else if (arg.starts_with("--jobs=")) {
      options.jobs = parse_jobs(argv[i] + 7);
    } else if (arg.starts_with("-")) {
      throw std::runtime_error("unknown flag '" + std::string(arg) +
                               "'; usage: s3asim_bench [--jobs N] "
                               "[SCENARIO...]");
    } else {
      const Scenario* found = nullptr;
      for (const Scenario& scenario : table)
        if (arg == scenario.name) found = &scenario;
      if (found == nullptr) {
        std::string names;
        for (const Scenario& scenario : table)
          names += std::string("\n  ") + scenario.name;
        throw std::runtime_error("unknown scenario '" + std::string(arg) +
                                 "'; the scenarios are:" + names);
      }
      options.scenarios.push_back(found);
    }
  }
  if (options.scenarios.empty())
    for (const Scenario& scenario : table)
      options.scenarios.push_back(&scenario);
  return options;
}

}  // namespace s3asim::bench
