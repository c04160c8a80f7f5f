/// s3asim — the command-line driver.
///
/// See apps/cli_usage.hpp for the full option list (kept in sync with the
/// parser below by tests/core/test_cli_usage.cpp).  Highlights:
///   --trace-json FILE    Chrome-trace-event JSON export (Perfetto)
///   --metrics-json FILE  per-run metrics manifest (s3asim-metrics-v1)
///   --jobs N             N concurrent replicas, bit-identity verified
///   --fault SPEC         fault injection ("crash:at=T" => resume-from-flush)
///
/// Exit status: 0 on success with a verified output file, 1 otherwise.

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_usage.hpp"
#include "core/config_loader.hpp"
#include "core/simulation.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/schema.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/units.hpp"

namespace {

void print_usage() { std::puts(s3asim::cli::kUsageText); }

/// The per-run manifest (`--metrics-json`): schema tag, config echo, trace
/// drop count, and the registry snapshot.  Validated by
/// `obs::validate_metrics_manifest` (tests + obs_validate + CI).
std::string render_manifest(const s3asim::core::SimConfig& config,
                            const s3asim::core::RunStats& stats,
                            const s3asim::trace::TraceLog* trace_log,
                            const s3asim::obs::Registry& registry) {
  using namespace s3asim;
  util::JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value(obs::kMetricsSchemaName);
  json.key("run");
  json.begin_object();
  json.key("strategy");
  json.value(core::strategy_name(config.strategy));
  json.key("nprocs");
  json.value(static_cast<std::uint64_t>(config.nprocs));
  json.key("groups");
  json.value(static_cast<std::uint64_t>(config.groups));
  json.key("query_sync");
  json.value(config.query_sync);
  json.key("compute_speed");
  json.value(config.compute_speed);
  json.key("wall_seconds");
  json.value(stats.wall_seconds);
  json.key("events");
  json.value(stats.events);
  json.key("file_exact");
  json.value(stats.file_exact);
  json.end_object();
  json.key("trace");
  json.begin_object();
  json.key("intervals_dropped");
  json.value(trace_log != nullptr ? trace_log->dropped() : std::uint64_t{0});
  json.end_object();
  json.key("metrics");
  registry.write_json(json);
  json.end_object();
  return json.str();
}

void print_effective_config(const s3asim::core::SimConfig& config) {
  using namespace s3asim;
  std::printf("nprocs            = %u\n", config.nprocs);
  std::printf("groups            = %u\n", config.groups);
  std::printf("strategy          = %s\n", core::strategy_name(config.strategy));
  std::printf("query_sync        = %s\n", config.query_sync ? "true" : "false");
  std::printf("compute_speed     = %g\n", config.compute_speed);
  std::printf("queries_per_flush = %u\n", config.queries_per_flush);
  std::printf("sync_after_write  = %s\n",
              config.sync_after_write ? "true" : "false");
  std::printf("query_count       = %u\n", config.workload.query_count);
  std::printf("fragment_count    = %u\n", config.workload.fragment_count);
  std::printf("result_count      = [%u, %u]\n", config.workload.result_count_min,
              config.workload.result_count_max);
  std::printf("seed              = %llu\n",
              static_cast<unsigned long long>(config.workload.seed));
  std::printf("database_bytes    = %s\n",
              util::format_bytes(config.workload.database_bytes).c_str());
  std::printf("worker_memory     = %s\n",
              util::format_bytes(config.worker_memory_bytes).c_str());
  std::printf("servers x strip   = %u x %s\n",
              config.model.pfs.layout.server_count(),
              util::format_bytes(config.model.pfs.layout.strip_size()).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s3asim;
  util::set_log_level(util::LogLevel::Warn);

  std::string config_path;
  std::vector<std::string> overrides;
  std::string trace_path;
  std::string trace_json_path;
  std::string metrics_json_path;
  std::string json_path;
  std::string fault_spec;
  std::string fault_timeout;
  bool want_gantt = false;
  bool print_config_only = false;
  unsigned jobs = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* option) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", option);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--procs") {
      overrides.push_back("nprocs = " + next_value("--procs"));
    } else if (arg == "--strategy") {
      overrides.push_back("strategy = " + next_value("--strategy"));
    } else if (arg == "--sync") {
      overrides.push_back("query_sync = true");
    } else if (arg == "--speed") {
      overrides.push_back("compute_speed = " + next_value("--speed"));
    } else if (arg == "--arrival-rate") {
      overrides.push_back("arrival_rate = " + next_value("--arrival-rate"));
    } else if (arg == "--arrival-trace") {
      overrides.push_back("arrival_trace = " + next_value("--arrival-trace"));
    } else if (arg == "--admit-policy") {
      overrides.push_back("admit_policy = " + next_value("--admit-policy"));
    } else if (arg == "--admit-depth") {
      overrides.push_back("admit_depth = " + next_value("--admit-depth"));
    } else if (arg == "--cache-size") {
      overrides.push_back("cache_capacity = " + next_value("--cache-size"));
    } else if (arg == "--cache-block") {
      overrides.push_back("cache_block = " + next_value("--cache-block"));
    } else if (arg == "--token-granularity") {
      overrides.push_back("token_granularity = " +
                          next_value("--token-granularity"));
    } else if (arg == "--worker-classes") {
      overrides.push_back("worker_classes = " + next_value("--worker-classes"));
    } else if (arg == "--joins") {
      overrides.push_back("joins = " + next_value("--joins"));
    } else if (arg == "--elastic") {
      overrides.push_back("elastic = true");
    } else if (arg == "--min-workers") {
      overrides.push_back("min_workers = " + next_value("--min-workers"));
    } else if (arg == "--autoscale-target") {
      overrides.push_back("autoscale_target = " +
                          next_value("--autoscale-target"));
    } else if (arg == "--read-method") {
      overrides.push_back("read_method = " + next_value("--read-method"));
    } else if (arg == "--sieve-buffer") {
      overrides.push_back("sieve_buffer = " + next_value("--sieve-buffer"));
    } else if (arg == "--trace") {
      trace_path = next_value("--trace");
    } else if (arg == "--trace-json") {
      trace_json_path = next_value("--trace-json");
    } else if (arg == "--metrics-json") {
      metrics_json_path = next_value("--metrics-json");
    } else if (arg == "--gantt") {
      want_gantt = true;
    } else if (arg == "--groups") {
      overrides.push_back("groups = " + next_value("--groups"));
    } else if (arg == "--jobs") {
      const std::string value = next_value("--jobs");
      const char* end = value.data() + value.size();
      const auto parsed = std::from_chars(value.data(), end, jobs);
      if (parsed.ec != std::errc{} || parsed.ptr != end || jobs < 1 ||
          jobs > 64) {
        std::fprintf(stderr, "error: --jobs expects 1..64, got '%s'\n",
                     value.c_str());
        return 1;
      }
    } else if (arg == "--fault") {
      fault_spec = next_value("--fault");
    } else if (arg == "--fault-timeout") {
      fault_timeout = next_value("--fault-timeout");
    } else if (arg == "--json") {
      json_path = next_value("--json");
    } else if (arg == "--set") {
      std::string setting = next_value("--set");
      const auto equals = setting.find('=');
      if (equals == std::string::npos) {
        std::fprintf(stderr, "error: --set expects key=value\n");
        return 1;
      }
      setting.replace(equals, 1, " = ");
      overrides.push_back(setting);
    } else if (arg == "--print-config") {
      print_config_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      print_usage();
      return 1;
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      std::fprintf(stderr, "error: more than one config file\n");
      return 1;
    }
  }

  // Compose: file contents first, command-line overrides appended (the
  // key=value parser rejects duplicates, so strip overridden lines first).
  std::string text;
  if (!config_path.empty()) {
    std::ifstream input(config_path);
    if (!input) {
      std::fprintf(stderr, "error: cannot open %s\n", config_path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << input.rdbuf();
    text = buffer.str();
  }
  for (const auto& line : overrides) {
    const std::string key = line.substr(0, line.find(' '));
    // Drop any earlier definition of the same key (first token before '=').
    std::istringstream all(text);
    std::ostringstream kept;
    std::string existing;
    while (std::getline(all, existing)) {
      const auto first = existing.find_first_not_of(" \t");
      if (first != std::string::npos) {
        auto end = existing.find_first_of(" \t=", first);
        if (end == std::string::npos) end = existing.size();
        if (existing.substr(first, end - first) == key) continue;
      }
      kept << existing << '\n';
    }
    // Prepend (a trailing append could land inside a histogram section).
    text = line + "\n" + kept.str();
  }

  core::SimConfig config;
  try {
    config = core::load_config(text);
    if (!fault_spec.empty()) config.fault = fault::parse_fault_plan(fault_spec);
    if (!fault_timeout.empty())
      config.fault_detection_timeout = fault::parse_time(fault_timeout);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  if (print_config_only) {
    print_effective_config(config);
    return 0;
  }

  trace::TraceLog trace;
  obs::Registry registry;
  const bool want_trace =
      want_gantt || !trace_path.empty() || !trace_json_path.empty();
  trace::TraceLog* trace_ptr = want_trace ? &trace : nullptr;
  obs::Registry* metrics_ptr = metrics_json_path.empty() ? nullptr : &registry;
  const core::Observability observe{trace_ptr, metrics_ptr};
  if (!config.fault.empty())
    std::printf("fault plan            : %s\n", config.fault.describe().c_str());

  // Replica determinism self-check (--jobs N): N-1 extra copies of the run
  // execute concurrently *without* observability; their statistics must be
  // bit-identical to the instrumented primary — simultaneously exercising
  // the determinism contract and the zero-perturbation guarantee of the
  // observability layer (DESIGN.md §8).
  std::vector<std::thread> replicas;
  std::vector<std::string> replica_stats(jobs > 1 ? jobs - 1 : 0);
  std::vector<std::string> replica_errors(replica_stats.size());
  for (std::size_t r = 0; r < replica_stats.size(); ++r) {
    replicas.emplace_back([&, r] {
      try {
        replica_stats[r] = core::run_simulation(config).to_json();
      } catch (const std::exception& error) {
        replica_errors[r] = error.what();
      }
    });
  }

  core::RunStats stats;
  const auto host_start = std::chrono::steady_clock::now();
  try {
    stats = core::run_simulation(config, observe);
  } catch (const std::exception& error) {
    for (auto& replica : replicas) replica.join();
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  const core::ResumeStats& resume = stats.resume;
  if (resume.crashed)
    std::printf(
        "crashed at %.3f s; resumed from query %u "
        "(%.3f s lost + %.3f s rerun = %.3f s total)\n",
        resume.crashed_seconds, resume.resume_query, resume.crashed_seconds,
        resume.resumed_seconds, resume.total_seconds);
  else if (resume.enabled)
    std::printf("crash time is past the end of the run; nothing lost\n");

  for (auto& replica : replicas) replica.join();
  if (jobs > 1) {
    const std::string reference = stats.to_json();
    bool identical = true;
    for (std::size_t r = 0; r < replica_stats.size(); ++r) {
      if (!replica_errors[r].empty()) {
        std::fprintf(stderr, "error: replica %zu failed: %s\n", r + 2,
                     replica_errors[r].c_str());
        identical = false;
      } else if (replica_stats[r] != reference) {
        std::fprintf(stderr,
                     "error: replica %zu diverged from the primary run "
                     "(determinism violation)\n",
                     r + 2);
        identical = false;
      }
    }
    if (!identical) return 1;
    std::printf("determinism check     : %u replicas bit-identical\n", jobs);
  }

  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();

  std::printf("%s\n", stats.phase_table().c_str());
  std::printf("%s\n", stats.summary().c_str());
  std::printf("scheduler events      : %llu (%.2f M events/s host)\n",
              static_cast<unsigned long long>(stats.events),
              host_seconds > 0.0
                  ? static_cast<double>(stats.events) / host_seconds / 1e6
                  : 0.0);
  if (stats.db_bytes_read > 0)
    std::printf("database streamed     : %s\n",
                util::format_bytes(stats.db_bytes_read).c_str());
  const core::FaultStats& faults = stats.faults;
  if (faults.workers_died + faults.workers_retired + faults.tasks_reassigned +
          faults.scores_dropped + faults.duplicate_completions +
          faults.repaired_bytes >
      0) {
    std::printf(
        "faults                : %llu died, %llu retired, %llu reassigned, "
        "%llu dropped, %llu duplicates, %s repaired\n",
        static_cast<unsigned long long>(faults.workers_died),
        static_cast<unsigned long long>(faults.workers_retired),
        static_cast<unsigned long long>(faults.tasks_reassigned),
        static_cast<unsigned long long>(faults.scores_dropped),
        static_cast<unsigned long long>(faults.duplicate_completions),
        util::format_bytes(faults.repaired_bytes).c_str());
  }

  if (stats.serving.enabled) {
    const core::TenantServingStats& all = stats.serving.overall;
    std::printf(
        "serving               : %llu offered, %llu shed, %llu completed; "
        "latency p50 %.3f s p95 %.3f s p99 %.3f s; goodput %.2f q/s\n",
        static_cast<unsigned long long>(all.offered),
        static_cast<unsigned long long>(all.shed),
        static_cast<unsigned long long>(all.completed), all.p50_seconds,
        all.p95_seconds, all.p99_seconds, stats.serving.goodput_qps);
  }

  if (want_gantt) std::printf("\n%s", trace.render_gantt(110).c_str());
  if (!trace_path.empty()) {
    trace.export_csv(trace_path);
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  if (!trace_json_path.empty()) {
    try {
      trace.export_chrome_json(trace_json_path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
    std::printf("chrome trace written to %s (open in ui.perfetto.dev)\n",
                trace_json_path.c_str());
  }
  if (!metrics_json_path.empty()) {
    std::ofstream out(metrics_json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   metrics_json_path.c_str());
      return 1;
    }
    out << render_manifest(config, stats, trace_ptr, registry) << '\n';
    std::printf("metrics manifest written to %s\n", metrics_json_path.c_str());
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << stats.to_json() << '\n';
    std::printf("stats written to %s\n", json_path.c_str());
  }
  return stats.file_exact ? 0 : 1;
}
