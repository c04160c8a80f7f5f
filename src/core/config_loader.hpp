#pragma once

/// \file config_loader.hpp
/// Builds a SimConfig from a key=value configuration (file or text) — the
/// CLI driver's front end.  Unknown keys are reported as errors so typos
/// cannot silently run the wrong experiment.

#include <string>

#include "core/config.hpp"
#include "util/keyval.hpp"

namespace s3asim::core {

/// Applies every recognized key of `config_text` on top of paper_config().
/// Throws std::invalid_argument on malformed values or unrecognized keys.
///
/// Recognized keys (all optional):
///   nprocs, groups, strategy, query_sync, compute_speed, queries_per_flush,
///   sync_after_write, worker_memory, fragment_affinity, mw_nonblocking_io,
///   seed, query_count, fragment_count, result_count_min, result_count_max,
///   min_result_bytes, size_scale, database_bytes,
///   net_latency_us, net_bandwidth_mbps, strip_size, server_count,
///   disk_bandwidth_mbps, disk_per_request_ms, disk_per_pair_ms,
///   sync_cost_ms, compute_startup_ms, compute_ns_per_byte,
///   cb_nodes, cb_buffer_size, two_phase_overhead_ms, collective_algorithm
/// plus histogram sections `[histogram query]` and `[histogram database]`.
[[nodiscard]] SimConfig load_config(const std::string& config_text);

/// File variant of load_config.
[[nodiscard]] SimConfig load_config_file(const std::string& path);

}  // namespace s3asim::core
