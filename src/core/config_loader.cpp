#include "core/config_loader.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/membership.hpp"
#include "core/serving.hpp"
#include "util/require.hpp"

namespace s3asim::core {

namespace {

mpiio::NoncontigMethod parse_read_method(const std::string& name) {
  if (name == "posix") return mpiio::NoncontigMethod::Posix;
  if (name == "list") return mpiio::NoncontigMethod::ListIo;
  if (name == "sieve") return mpiio::NoncontigMethod::Sieve;
  throw std::invalid_argument("unknown read_method '" + name +
                              "' (expected 'posix', 'list' or 'sieve')");
}

/// An unsigned 32-bit key's value, or `fallback` when the key is absent.
/// A value outside [min, 2^32 - 1] is rejected instead of wrapping: a
/// wrapped count asks for billions of ranks, servers or results.
std::uint32_t get_u32(const util::KeyValConfig& keyval, const std::string& key,
                      std::uint32_t fallback, std::uint32_t min) {
  constexpr std::int64_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t value = keyval.get_int(key, fallback);
  if (value < min || value > kMax)
    throw std::invalid_argument("key '" + key + "': " + std::to_string(value) +
                                " is outside [" + std::to_string(min) + ", " +
                                std::to_string(kMax) + "]");
  return static_cast<std::uint32_t>(value);
}

}  // namespace

SimConfig load_config(const std::string& config_text) {
  const auto keyval = util::KeyValConfig::parse(config_text);
  SimConfig config = paper_config();

  // --- Run shape. -----------------------------------------------------------
  // A master and at least one worker.
  config.nprocs = get_u32(keyval, "nprocs", config.nprocs, 2);
  config.groups = get_u32(keyval, "groups", config.groups, 1);
  config.strategy =
      parse_strategy(keyval.get_string("strategy", strategy_name(config.strategy)));
  config.query_sync = keyval.get_bool("query_sync", config.query_sync);
  config.compute_speed = keyval.get_double("compute_speed", config.compute_speed);
  config.compute_speed_jitter =
      keyval.get_double("compute_speed_jitter", config.compute_speed_jitter);
  config.queries_per_flush =
      get_u32(keyval, "queries_per_flush", config.queries_per_flush, 1);
  config.sync_after_write =
      keyval.get_bool("sync_after_write", config.sync_after_write);
  config.worker_memory_bytes =
      keyval.get_bytes("worker_memory", config.worker_memory_bytes);
  config.fragment_affinity =
      keyval.get_bool("fragment_affinity", config.fragment_affinity);
  config.mw_nonblocking_io =
      keyval.get_bool("mw_nonblocking_io", config.mw_nonblocking_io);
  // 0 = one aggregation group per run.
  config.aggregator_fanin =
      get_u32(keyval, "aggregator_fanin", config.aggregator_fanin, 0);

  // --- Workload. --------------------------------------------------------------
  auto& workload = config.workload;
  workload.seed = static_cast<std::uint64_t>(
      keyval.get_int("seed", static_cast<std::int64_t>(workload.seed)));
  workload.query_count =
      get_u32(keyval, "query_count", workload.query_count, 1);
  workload.fragment_count =
      get_u32(keyval, "fragment_count", workload.fragment_count, 1);
  workload.result_count_min =
      get_u32(keyval, "result_count_min", workload.result_count_min, 1);
  workload.result_count_max =
      get_u32(keyval, "result_count_max", workload.result_count_max, 1);
  workload.min_result_bytes =
      keyval.get_bytes("min_result_bytes", workload.min_result_bytes);
  workload.size_scale = keyval.get_double("size_scale", workload.size_scale);
  workload.database_bytes =
      keyval.get_bytes("database_bytes", workload.database_bytes);
  workload.db_chunk_bytes =
      keyval.get_bytes("db_chunk_bytes", workload.db_chunk_bytes);
  if (const auto hist = keyval.get_histogram("query"))
    workload.query_histogram = *hist;
  if (const auto hist = keyval.get_histogram("database"))
    workload.database_histogram = *hist;

  // --- Model. -----------------------------------------------------------------
  auto& model = config.model;
  model.network.latency = sim::microseconds(keyval.get_double(
      "net_latency_us", sim::to_seconds(model.network.latency) * 1e6));
  model.network.bandwidth_bps =
      keyval.get_double("net_bandwidth_mbps",
                        model.network.bandwidth_bps / 1e6) * 1e6;
  const std::uint64_t strip = keyval.get_bytes(
      "strip_size", model.pfs.layout.strip_size());
  const std::uint32_t servers =
      get_u32(keyval, "server_count", model.pfs.layout.server_count(), 1);
  model.pfs.layout = pfs::Layout(strip, servers);

  // --- Client-side cache (ISSUE 8; all optional — default = cache off). ----
  if (keyval.has("cache_capacity") || keyval.has("cache_block") ||
      keyval.has("token_granularity")) {
    auto& cache = model.pfs.cache;
    cache.capacity_bytes =
        keyval.get_bytes("cache_capacity", cache.capacity_bytes);
    cache.block_bytes = keyval.get_bytes("cache_block", cache.block_bytes);
    cache.token_bytes =
        keyval.get_bytes("token_granularity", cache.token_bytes);
    if (cache.capacity_bytes == 0)
      throw std::invalid_argument(
          "key 'cache_capacity': must be positive to enable the client "
          "cache (omit all cache keys to disable it)");
    if (cache.block_bytes == 0 || strip % cache.block_bytes != 0)
      throw std::invalid_argument(
          "key 'cache_block': " + std::to_string(cache.block_bytes) +
          " must be positive and divide strip_size (" + std::to_string(strip) +
          ") so a cache block never straddles servers");
    if (cache.token_bytes < cache.block_bytes ||
        cache.token_bytes % cache.block_bytes != 0)
      throw std::invalid_argument(
          "key 'token_granularity': " + std::to_string(cache.token_bytes) +
          " must be a multiple of cache_block (" +
          std::to_string(cache.block_bytes) +
          ") — a lease boundary must not split a cache block");
    if (cache.capacity_bytes < cache.block_bytes)
      throw std::invalid_argument(
          "key 'cache_capacity': " + std::to_string(cache.capacity_bytes) +
          " must hold at least one cache_block (" +
          std::to_string(cache.block_bytes) + ")");
  }
  model.pfs.disk.bandwidth_bps =
      keyval.get_double("disk_bandwidth_mbps",
                        model.pfs.disk.bandwidth_bps / 1e6) * 1e6;
  model.pfs.disk.per_request = sim::milliseconds(keyval.get_double(
      "disk_per_request_ms", sim::to_milliseconds(model.pfs.disk.per_request)));
  model.pfs.disk.per_pair = sim::milliseconds(keyval.get_double(
      "disk_per_pair_ms", sim::to_milliseconds(model.pfs.disk.per_pair)));
  model.pfs.disk.sync_cost = sim::milliseconds(keyval.get_double(
      "sync_cost_ms", sim::to_milliseconds(model.pfs.disk.sync_cost)));
  // Read-side knobs; zero (the default) inherits the write-side cost.
  model.pfs.disk.read_bandwidth_bps =
      keyval.get_double("disk_read_bandwidth_mbps",
                        model.pfs.disk.read_bandwidth_bps / 1e6) * 1e6;
  model.pfs.disk.read_per_request = sim::milliseconds(keyval.get_double(
      "disk_read_per_request_ms",
      sim::to_milliseconds(model.pfs.disk.read_per_request)));
  model.pfs.disk.read_per_pair = sim::milliseconds(keyval.get_double(
      "disk_read_per_pair_ms",
      sim::to_milliseconds(model.pfs.disk.read_per_pair)));
  model.compute_startup = sim::milliseconds(keyval.get_double(
      "compute_startup_ms", sim::to_milliseconds(model.compute_startup)));
  model.compute_ns_per_result_byte = keyval.get_double(
      "compute_ns_per_byte", model.compute_ns_per_result_byte);

  // --- Hints. -----------------------------------------------------------------
  // 0 = every participant aggregates.
  config.hints.cb_nodes = get_u32(keyval, "cb_nodes", config.hints.cb_nodes, 0);
  config.hints.cb_buffer_size =
      keyval.get_bytes("cb_buffer_size", config.hints.cb_buffer_size);
  config.hints.two_phase_round_overhead = sim::milliseconds(keyval.get_double(
      "two_phase_overhead_ms",
      sim::to_milliseconds(config.hints.two_phase_round_overhead)));
  config.hints.sieve_buffer_bytes =
      keyval.get_bytes("sieve_buffer", config.hints.sieve_buffer_bytes);
  if (config.hints.sieve_buffer_bytes == 0)
    throw std::invalid_argument(
        "key 'sieve_buffer': must be positive — a sieved access transfers "
        "one buffer-sized window per round trip");
  if (model.pfs.cache.enabled() &&
      config.hints.sieve_buffer_bytes < model.pfs.cache.block_bytes)
    throw std::invalid_argument(
        "key 'sieve_buffer': " +
        std::to_string(config.hints.sieve_buffer_bytes) +
        " is smaller than cache_block (" +
        std::to_string(model.pfs.cache.block_bytes) +
        ") — with the cache enabled, sieved accesses go through the cache, "
        "which transfers whole blocks");
  if (keyval.has("read_method"))
    config.read_method =
        parse_read_method(keyval.get_string("read_method", ""));

  // --- Serving (open-loop arrivals; all optional — defaults = closed batch).
  auto& serving = config.serving;
  serving.arrival_rate_hz =
      keyval.get_double("arrival_rate", serving.arrival_rate_hz);
  serving.arrival_trace =
      keyval.get_string("arrival_trace", serving.arrival_trace);
  if (keyval.has("admit_policy"))
    serving.policy =
        parse_admit_policy(keyval.get_string("admit_policy", ""));
  serving.admit_depth = get_u32(keyval, "admit_depth", serving.admit_depth, 1);
  serving.inflight_watermark_bytes = keyval.get_bytes(
      "inflight_watermark", serving.inflight_watermark_bytes);
  if (keyval.has("tenants"))
    serving.tenants = parse_tenants(keyval.get_string("tenants", ""));
  if (!serving.arrival_trace.empty()) apply_arrival_trace(config);

  // --- Membership (ISSUE 10; all optional — defaults = fixed cluster). ----
  auto& membership = config.membership;
  if (keyval.has("worker_classes"))
    membership.classes =
        parse_worker_classes(keyval.get_string("worker_classes", ""));
  membership.speed_aware =
      keyval.get_bool("speed_aware", membership.speed_aware);
  if (keyval.has("joins"))
    membership.joins = parse_joins(keyval.get_string("joins", ""));
  membership.elastic = keyval.get_bool("elastic", membership.elastic);
  membership.min_workers =
      get_u32(keyval, "min_workers", membership.min_workers, 0);
  membership.autoscale_target =
      keyval.get_double("autoscale_target", membership.autoscale_target);
  if (membership.autoscale_target <= 0.0)
    throw std::invalid_argument(
        "key 'autoscale_target': must be positive (the admission queue "
        "depth that triggers a scale-up)");
  const double cooldown_ms = keyval.get_double(
      "autoscale_cooldown_ms",
      sim::to_milliseconds(membership.autoscale_cooldown));
  if (cooldown_ms < 0.0)
    throw std::invalid_argument(
        "key 'autoscale_cooldown_ms': must be non-negative");
  membership.autoscale_cooldown = sim::milliseconds(cooldown_ms);
  for (const JoinSpec& join : membership.joins)
    if (!join.speed_class.empty() && membership.classes.empty())
      throw std::invalid_argument(
          "joins entry for worker " + std::to_string(join.rank) +
          " names a speed class but no worker_classes are declared");

  const auto unused = keyval.unused_keys();
  if (!unused.empty()) {
    std::string message = "unrecognized config keys:";
    for (const auto& key : unused) message += " '" + key + "'";
    throw std::invalid_argument(message);
  }
  return config;
}

}  // namespace s3asim::core
