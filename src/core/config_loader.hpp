#pragma once

/// \file config_loader.hpp
/// Builds a SimConfig from key=value configuration text — the CLI's front
/// end (the CLI reads its config file and `--set` overrides into one
/// text).  Unknown keys are reported as errors so typos cannot silently
/// run the wrong experiment.

#include <string>

#include "core/config.hpp"
#include "util/keyval.hpp"

namespace s3asim::core {

/// Applies every recognized key of `config_text` on top of paper_config().
/// Throws std::invalid_argument on malformed values or unrecognized keys.
///
/// Recognized keys (all optional):
///   run shape: nprocs, groups, strategy, query_sync, compute_speed,
///     compute_speed_jitter, queries_per_flush, sync_after_write,
///     worker_memory, fragment_affinity, mw_nonblocking_io, aggregator_fanin
///   workload: seed, query_count, fragment_count, result_count_min,
///     result_count_max, min_result_bytes, size_scale, database_bytes,
///     db_chunk_bytes
///   model: net_latency_us, net_bandwidth_mbps, strip_size, server_count,
///     disk_bandwidth_mbps, disk_per_request_ms, disk_per_pair_ms,
///     sync_cost_ms, disk_read_bandwidth_mbps, disk_read_per_request_ms,
///     disk_read_per_pair_ms, compute_startup_ms, compute_ns_per_byte,
///     cache_capacity, cache_block, token_granularity
///   hints: cb_nodes, cb_buffer_size, two_phase_overhead_ms, sieve_buffer,
///     read_method
///   serving: arrival_rate, arrival_trace, admit_policy, admit_depth,
///     inflight_watermark, tenants
///   membership: worker_classes, speed_aware, joins, elastic, min_workers,
///     autoscale_target, autoscale_cooldown_ms
/// plus histogram sections `[histogram query]` and `[histogram database]`.
/// The collective algorithm is not a key: the strategy picks it (WW-Coll
/// runs two-phase, WW-CollList list I/O plus synchronization).
[[nodiscard]] SimConfig load_config(const std::string& config_text);

}  // namespace s3asim::core
