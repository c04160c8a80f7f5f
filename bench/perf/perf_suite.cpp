/// \file perf_suite.cpp
/// Host-time benchmark harness: runs one workload's configs in-process
/// through `core::run_simulation` and prints one JSON document on stdout.
///
///   perf_suite --workload NAME [--seed N] [--seconds S]
///              [--traced [--probe-scale F]] [--trace-out FILE]
///
/// Timing mode (default): a cold first pass supplies `setup_s` (process
/// start to the end of that pass) and the reference fingerprint of every
/// config; timed passes follow until `--seconds` of host time have been
/// measured (at least one).  Traced mode alternates untraced and traced
/// passes for `--seconds` (at least one pair), reads the exact per-pass
/// counts from the traced registry and log, then runs the layer probes.
/// `bench/perf/run.py` drives both and turns the raw samples into metrics.
///
/// A simulation fails if it throws, misses the exact-coverage oracle, or
/// returns a `RunStats::to_json()` different from its config's first pass
/// (traced or not).  Failures are reported, never fatal: the runner judges.

#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/simulation.hpp"
#include "core/workload.hpp"
#include "perf.hpp"
#include "sim/frame_pool.hpp"
#include "util/json.hpp"

namespace {

using namespace s3asim;
using perf::Clock;
using perf::PerfConfig;
using perf::SpanLog;

/// Static initialization runs before main: the nearest in-process stand-in
/// for process start.
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = core::WorkloadConfig{}.seed;
  double seconds = 5.0;
  bool traced = false;
  double probe_scale = 1.0;
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      options.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(next());
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--probe-scale") {
      options.probe_scale = std::stod(next());
    } else if (arg == "--trace-out") {
      options.trace_out = next();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (options.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (!(options.seconds >= 0.0))
    throw std::invalid_argument("--seconds must be >= 0");
  if (!(options.probe_scale > 0.0 && options.probe_scale <= 1.0))
    throw std::invalid_argument("--probe-scale must be in (0, 1]");
  return options;
}

/// FNV-1a of the full `RunStats` dump: equal iff the simulated outcome is.
std::string fingerprint(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Runs simulations and checks each against its config's first outcome.
class Checker {
 public:
  Checker(const std::vector<PerfConfig>& configs, SpanLog& spans)
      : configs_(&configs), spans_(&spans), reference_(configs.size()) {}

  /// Runs config `index` once; returns the host seconds of the
  /// `run_simulation` call and, when it succeeded, its stats.
  std::optional<core::RunStats> simulate(
      std::size_t index, const core::Observability& observe, double& host_s) {
    const PerfConfig& config = (*configs_)[index];
    ++attempted_;
    std::optional<core::RunStats> stats;
    const SpanLog::Scope span =
        spans_->open("run_simulation " + config.label, attempted_);
    const Clock::time_point start = Clock::now();
    try {
      stats = core::run_simulation(config.config, observe);
    } catch (const std::exception& error) {
      host_s = seconds_since(start);
      fail(config, std::string("threw: ") + error.what());
      return std::nullopt;
    }
    host_s = seconds_since(start);
    const std::string print = fingerprint(stats->to_json());
    if (reference_[index].empty()) reference_[index] = print;
    if (!stats->file_exact) {
      fail(config, "output file not covered exactly");
      return std::nullopt;
    }
    if (print != reference_[index]) {
      fail(config, (observe.enabled() ? "traced " : "") +
                       std::string("fingerprint ") + print + " != " +
                       reference_[index]);
      return std::nullopt;
    }
    return stats;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }
  [[nodiscard]] const std::string& reference(std::size_t index) const {
    return reference_[index];
  }

 private:
  void fail(const PerfConfig& config, const std::string& why) {
    errors_.push_back(config.label + ": " + why);
  }

  const std::vector<PerfConfig>* configs_;
  SpanLog* spans_;
  std::vector<std::string> reference_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
};

/// A fixed ordered-map churn over up to ~42k live nodes (~3.6 MiB).  The
/// simulator's hot paths allocate and chase pointers through frames,
/// queues and maps, so this loop slows with the same host contention
/// (other tenants sharing caches and memory); the runner scales pass times
/// by it.  Its nodes live in an arena of their own, never in the heap the
/// simulator uses, so the simulator's allocator state cannot change the
/// loop's speed.
class ReferenceLoop {
 public:
  /// Runs the loop once untimed, so the arena's pages are resident.
  ReferenceLoop() : arena_(new std::byte[kArenaBytes]) { (void)seconds(); }

  /// Host seconds of one run of the loop.
  [[nodiscard]] double seconds() const {
    // ~76k node allocations of 48 bytes; the arena is never refilled from
    // elsewhere, so outgrowing it throws std::bad_alloc.
    std::pmr::monotonic_buffer_resource memory(
        arena_.get(), kArenaBytes, std::pmr::null_memory_resource());
    const Clock::time_point start = Clock::now();
    std::pmr::map<std::uint64_t, std::uint64_t> map(&memory);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < 100'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      map[x % 100'000] += i;
      if (i % 3 == 0) map.erase(map.begin());
    }
    return seconds_since(start);
  }

 private:
  static constexpr std::size_t kArenaBytes = std::size_t{6} << 20;
  std::unique_ptr<std::byte[]> arena_;
};

/// Host seconds of one pass: the sum of its `run_simulation` calls.
double untraced_pass(Checker& checker, std::size_t configs, SpanLog& spans,
                     const char* name) {
  const SpanLog::Scope span = spans.open(name);
  double total = 0.0;
  for (std::size_t i = 0; i < configs; ++i) {
    double host_s = 0.0;
    (void)checker.simulate(i, {}, host_s);
    total += host_s;
  }
  return total;
}

/// Extents the master handed out in offset lists: each master→worker
/// message carries `control_message_bytes` plus one entry per extent.
std::uint64_t offset_list_extents(const trace::TraceLog& log,
                                  const core::ModelParams& model) {
  std::uint64_t extents = 0;
  for (const trace::Flow& flow : log.flows()) {
    if (flow.src != 0 || flow.tag != core::kTagMasterToWorker) continue;
    if (flow.bytes > model.control_message_bytes)
      extents += (flow.bytes - model.control_message_bytes) /
                 model.bytes_per_offset_entry;
  }
  return extents;
}

/// A traced pass: fresh registry and log per simulation; the counts of
/// the pass are summed over its configs.
double traced_pass(Checker& checker, const std::vector<PerfConfig>& configs,
                   SpanLog& spans, perf::PassCounts& counts) {
  const SpanLog::Scope span = spans.open("pass traced");
  counts = {};
  double total = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    trace::TraceLog log;
    obs::Registry registry;
    double host_s = 0.0;
    const std::optional<core::RunStats> stats =
        checker.simulate(i, core::Observability{&log, &registry}, host_s);
    total += host_s;
    if (!stats) continue;
    const auto counter = [&registry](const char* name) {
      return registry.counter(name).value();
    };
    counts.events += stats->events;
    counts.transfers += counter("net.messages_sent");
    counts.transfer_bytes += counter("net.bytes_sent");
    counts.messages += counter("mpi.messages");
    counts.message_bytes += counter("mpi.bytes");
    counts.requests += counter("pfs.write.requests") +
                       counter("pfs.read.requests") +
                       counter("pfs.sync.requests");
    counts.pairs += counter("pfs.write.pairs") + counter("pfs.read.pairs");
    if (core::is_collective(configs[i].config.strategy))
      counts.extents += offset_list_extents(log, configs[i].config.model);
    const core::CacheRunStats& cache = stats->cache;
    counts.block_hits += cache.read_hits + cache.write_hits;
    counts.block_ops += cache.read_hits + cache.read_misses +
                        cache.write_hits + cache.write_misses;
    const core::SieveRunStats& sieve = stats->sieve;
    counts.windows += sieve.reads + sieve.writes;
    counts.sieve_useful += sieve.read_useful_bytes + sieve.write_useful_bytes;
    counts.sieve_moved +=
        sieve.read_transferred_bytes + sieve.write_transferred_bytes;
  }
  return total;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_numbers(util::JsonWriter& json, const char* key,
                   const std::vector<double>& values) {
  json.key(key);
  json.begin_array();
  for (const double value : values) json.value(value);
  json.end_array();
}

/// Header shared by both modes: identity, outcome, per-config fingerprints.
void write_common(util::JsonWriter& json, const Options& options,
                  const std::vector<PerfConfig>& configs,
                  const Checker& checker) {
  json.key("workload");
  json.value(options.workload);
  json.key("seed");
  json.value(options.seed);
  json.key("attempted");
  json.value(checker.attempted());
  json.key("failed");
  json.value(static_cast<std::uint64_t>(checker.errors().size()));
  json.key("errors");
  json.begin_array();
  for (const std::string& error : checker.errors()) json.value(error);
  json.end_array();
  json.key("fingerprints");
  json.begin_object();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    json.key(configs[i].label);
    json.value(checker.reference(i));
  }
  json.end_object();
  std::uint64_t queries = 0;
  for (const PerfConfig& config : configs)
    queries += config.config.workload.query_count;
  json.key("queries_per_pass");
  json.value(queries);
}

void run_timed(util::JsonWriter& json, const Options& options,
               const std::vector<PerfConfig>& configs, SpanLog& spans) {
  Checker checker(configs, spans);
  {
    const SpanLog::Scope span = spans.open("setup");
    (void)untraced_pass(checker, configs.size(), spans, "pass cold");
  }
  const double setup_s = seconds_since(kProcessStart);
  const ReferenceLoop reference;
  const double setup_reference_s = reference.seconds();
  std::vector<double> pass_s;
  std::vector<double> reference_s;
  double measured = 0.0;
  do {
    reference_s.push_back(reference.seconds());
    pass_s.push_back(
        untraced_pass(checker, configs.size(), spans, "pass timed"));
    measured += pass_s.back();
  } while (measured < options.seconds);

  write_common(json, options, configs, checker);
  json.key("setup_s");
  json.value(setup_s);
  json.key("setup_reference_s");
  json.value(setup_reference_s);
  json.key("peak_rss_mb");
  json.value(peak_rss_mb());
  write_numbers(json, "pass_host_s", pass_s);
  write_numbers(json, "reference_s", reference_s);
}

void run_traced(util::JsonWriter& json, const Options& options,
                const std::vector<PerfConfig>& configs, SpanLog& spans) {
  Checker checker(configs, spans);
  // Steady passes serve every frame from the free lists; the cold pass
  // shows how much of the pool's growth later frames reuse.
  const sim::FramePool& pool = sim::FramePool::local();
  {
    const SpanLog::Scope span = spans.open("setup");
    (void)untraced_pass(checker, configs.size(), spans, "pass cold");
  }
  const double reuse_ratio = ratio(pool.reused(), pool.allocations());
  perf::PassCounts counts;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  const Clock::time_point start = Clock::now();
  do {
    untraced_s.push_back(
        untraced_pass(checker, configs.size(), spans, "pass untraced"));
    traced_s.push_back(traced_pass(checker, configs, spans, counts));
  } while (seconds_since(start) < options.seconds);

  for (const PerfConfig& config : configs)
    counts.results +=
        core::WorkloadModel(config.config.workload).total_result_count();
  const perf::LayerCosts costs =
      perf::run_probes(configs, counts, options.probe_scale, spans);

  const double pass_p50 = median(untraced_s);
  const auto share = [pass_p50](std::uint64_t calls, double ns) {
    return pass_p50 > 0.0 ? static_cast<double>(calls) * ns * 1e-9 / pass_p50
                          : 0.0;
  };
  struct Layer {
    const char* name;
    const char* count_name;
    std::uint64_t count;
    const char* cost_name;
    double ns;
  };
  const Layer layers[] = {
      {"sim", "sim.events", counts.events, "sim.ns_per_event",
       costs.sim_ns_per_event},
      {"net", "net.transfers", counts.transfers, "net.ns_per_transfer",
       costs.net_ns_per_transfer},
      {"mpi", "mpi.messages", counts.messages, "mpi.ns_per_message",
       costs.mpi_ns_per_message},
      {"pfs", "pfs.requests", counts.requests, "pfs.ns_per_request",
       costs.pfs_ns_per_request},
      {"mpiio", "mpiio.extents", counts.extents, "mpiio.ns_per_extent",
       costs.mpiio_ns_per_extent},
      {"cache", "cache.block_ops", counts.block_ops, "cache.ns_per_block_op",
       costs.cache_ns_per_block_op},
      {"sieve", "sieve.windows", counts.windows, "sieve.ns_per_window",
       costs.sieve_ns_per_window},
      {"core.workload", "core.workload.results", counts.results,
       "core.workload.ns_per_result", costs.workload_ns_per_result},
  };

  write_common(json, options, configs, checker);
  write_numbers(json, "untraced_pass_s", untraced_s);
  write_numbers(json, "traced_pass_s", traced_s);
  json.key("layer");
  json.begin_object();
  double accounted = 0.0;
  for (const Layer& layer : layers) {
    json.key(layer.count_name);
    json.value(layer.count);
    json.key(layer.cost_name);
    json.value(layer.ns);
    const double layer_share = share(layer.count, layer.ns);
    accounted += layer_share;
    json.key(std::string(layer.name) + ".host_share");
    json.value(layer_share);
  }
  json.key("pfs.pairs");
  json.value(counts.pairs);
  json.key("core.runtime.host_share");
  json.value(1.0 - accounted);
  json.key("sim.frame_pool.reuse_ratio");
  json.value(reuse_ratio);
  json.key("cache.hit_ratio");
  json.value(ratio(counts.block_hits, counts.block_ops));
  json.key("sieve.useful_ratio");
  json.value(ratio(counts.sieve_useful, counts.sieve_moved));
  json.key("obs.trace_overhead");
  json.value(median(traced_s) / median(untraced_s) - 1.0);
  json.end_object();
  json.key("spans");
  json.begin_object();
  json.key("run_simulation");
  json.value(static_cast<std::uint64_t>(spans.count("run_simulation ")));
  json.key("probe");
  json.value(static_cast<std::uint64_t>(spans.count("probe ")));
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    const std::vector<PerfConfig> configs =
        perf::workload_configs(options.workload, options.seed);
    SpanLog spans;
    util::JsonWriter json;
    json.begin_object();
    json.key("mode");
    json.value(options.traced ? "traced" : "timed");
    if (options.traced)
      run_traced(json, options, configs, spans);
    else
      run_timed(json, options, configs, spans);
    json.end_object();
    std::printf("%s\n", json.str().c_str());
    if (!options.trace_out.empty()) spans.write_chrome_json(options.trace_out);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perf_suite: %s\n", error.what());
    return 2;
  }
}
