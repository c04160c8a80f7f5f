#include "core/stats.hpp"

#include <sstream>

#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace s3asim::core {

namespace {

void write_tenant_serving(util::JsonWriter& json,
                          const TenantServingStats& stats) {
  json.begin_object();
  json.key("name");
  json.value(stats.name);
  json.key("offered");
  json.value(stats.offered);
  json.key("admitted");
  json.value(stats.admitted);
  json.key("shed");
  json.value(stats.shed);
  json.key("completed");
  json.value(stats.completed);
  json.key("latency_mean_seconds");
  json.value(stats.mean_seconds);
  json.key("latency_p50_seconds");
  json.value(stats.p50_seconds);
  json.key("latency_p95_seconds");
  json.value(stats.p95_seconds);
  json.key("latency_p99_seconds");
  json.value(stats.p99_seconds);
  json.key("latency_max_seconds");
  json.value(stats.max_seconds);
  json.end_object();
}

}  // namespace

double RunStats::worker_mean_seconds(Phase phase) const {
  if (ranks.size() <= 1) return 0.0;
  double total = 0.0;
  for (std::size_t rank = 1; rank < ranks.size(); ++rank)
    total += ranks[rank].phases.seconds(phase);
  return total / static_cast<double>(ranks.size() - 1);
}

double RunStats::master_seconds(Phase phase) const {
  if (ranks.empty()) return 0.0;
  return ranks[0].phases.seconds(phase);
}

std::string RunStats::phase_table() const {
  util::TextTable table({"Phase", "Master (s)", "Worker mean (s)"});
  for (const Phase phase : all_phases()) {
    table.add_row({phase_name(phase),
                   util::format_fixed(master_seconds(phase)),
                   util::format_fixed(worker_mean_seconds(phase))});
  }
  table.add_row({"Wall", util::format_fixed(wall_seconds), ""});
  return table.render();
}

std::string RunStats::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  json.key("strategy");
  json.value(strategy_name(strategy));
  json.key("nprocs");
  json.value(static_cast<std::uint64_t>(nprocs));
  json.key("groups");
  json.value(static_cast<std::uint64_t>(groups));
  json.key("query_sync");
  json.value(query_sync);
  json.key("compute_speed");
  json.value(compute_speed);
  json.key("wall_seconds");
  json.value(wall_seconds);
  json.key("events");
  json.value(events);

  json.key("output");
  json.begin_object();
  json.key("bytes");
  json.value(output_bytes);
  json.key("covered_bytes");
  json.value(bytes_covered);
  json.key("overlaps");
  json.value(overlap_count);
  json.key("exact");
  json.value(file_exact);
  json.key("db_bytes_read");
  json.value(db_bytes_read);
  json.end_object();

  json.key("faults");
  json.begin_object();
  json.key("workers_died");
  json.value(faults.workers_died);
  json.key("workers_retired");
  json.value(faults.workers_retired);
  json.key("tasks_reassigned");
  json.value(faults.tasks_reassigned);
  json.key("duplicate_completions");
  json.value(faults.duplicate_completions);
  json.key("scores_dropped");
  json.value(faults.scores_dropped);
  json.key("repaired_bytes");
  json.value(faults.repaired_bytes);
  json.end_object();

  if (resume.enabled) {
    json.key("resume");
    json.begin_object();
    json.key("crashed");
    json.value(resume.crashed);
    json.key("resume_query");
    json.value(static_cast<std::uint64_t>(resume.resume_query));
    json.key("crashed_seconds");
    json.value(resume.crashed_seconds);
    json.key("resumed_seconds");
    json.value(resume.resumed_seconds);
    json.key("total_seconds");
    json.value(resume.total_seconds);
    json.end_object();
  }

  if (serving.enabled) {
    json.key("serving");
    json.begin_object();
    json.key("goodput_qps");
    json.value(serving.goodput_qps);
    json.key("inflight_peak_bytes");
    json.value(serving.inflight_peak_bytes);
    json.key("overall");
    write_tenant_serving(json, serving.overall);
    json.key("tenants");
    json.begin_array();
    for (const TenantServingStats& tenant : serving.tenants)
      write_tenant_serving(json, tenant);
    json.end_array();
    json.end_object();
  }

  if (membership.enabled) {
    json.key("membership");
    json.begin_object();
    json.key("epoch");
    json.value(membership.epoch);
    json.key("participants");
    json.value(static_cast<std::uint64_t>(membership.participants));
    json.key("peak_active");
    json.value(static_cast<std::uint64_t>(membership.peak_active));
    json.key("final_active");
    json.value(static_cast<std::uint64_t>(membership.final_active));
    json.key("joins");
    json.value(static_cast<std::uint64_t>(membership.joins));
    json.key("drains");
    json.value(static_cast<std::uint64_t>(membership.drains));
    json.key("deaths");
    json.value(static_cast<std::uint64_t>(membership.deaths));
    json.key("worker_seconds");
    json.value(membership.worker_seconds);
    json.key("join_latency_mean_seconds");
    json.value(membership.join_latency_mean_seconds);
    json.key("join_latency_max_seconds");
    json.value(membership.join_latency_max_seconds);
    json.key("speed_min");
    json.value(membership.speed_min);
    json.key("speed_max");
    json.value(membership.speed_max);
    json.key("speed_mean");
    json.value(membership.speed_mean);
    json.key("classes");
    json.begin_array();
    for (const ClassStats& cls : membership.classes) {
      json.begin_object();
      json.key("name");
      json.value(cls.name);
      json.key("speed");
      json.value(cls.speed);
      json.key("workers");
      json.value(static_cast<std::uint64_t>(cls.workers));
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  json.key("batch_complete_seconds");
  json.begin_array();
  for (const double at : batch_complete_seconds) json.value(at);
  json.end_array();

  json.key("file_system");
  json.begin_object();
  json.key("requests");
  json.value(fs.server_requests);
  json.key("pairs");
  json.value(fs.server_pairs);
  json.key("bytes");
  json.value(fs.server_bytes);
  json.key("syncs");
  json.value(fs.server_syncs);
  json.key("busy_seconds");
  json.value(fs.server_busy_seconds);
  json.end_object();

  if (cache.enabled) {
    json.key("cache");
    json.begin_object();
    json.key("read_hits");
    json.value(cache.read_hits);
    json.key("read_misses");
    json.value(cache.read_misses);
    json.key("write_hits");
    json.value(cache.write_hits);
    json.key("write_misses");
    json.value(cache.write_misses);
    json.key("evictions");
    json.value(cache.evictions);
    json.key("writebacks");
    json.value(cache.writebacks);
    json.key("writeback_bytes");
    json.value(cache.writeback_bytes);
    json.key("invalidations");
    json.value(cache.invalidations);
    json.key("close_writebacks");
    json.value(cache.close_writebacks);
    json.key("token_grants");
    json.value(cache.token_grants);
    json.key("token_revocations");
    json.value(cache.token_revocations);
    json.key("token_conflicts");
    json.value(cache.token_conflicts);
    json.key("metadata_ops");
    json.value(cache.metadata_ops);
    json.key("metadata_busy_seconds");
    json.value(cache.metadata_busy_seconds);
    json.end_object();
  }

  if (sieve.enabled) {
    json.key("sieve");
    json.begin_object();
    json.key("reads");
    json.value(sieve.reads);
    json.key("writes");
    json.value(sieve.writes);
    json.key("rmw_reads");
    json.value(sieve.rmw_reads);
    json.key("holes_protected");
    json.value(sieve.holes_protected);
    json.key("read_useful_bytes");
    json.value(sieve.read_useful_bytes);
    json.key("read_transferred_bytes");
    json.value(sieve.read_transferred_bytes);
    json.key("write_useful_bytes");
    json.value(sieve.write_useful_bytes);
    json.key("write_transferred_bytes");
    json.value(sieve.write_transferred_bytes);
    json.end_object();
  }

  json.key("ranks");
  json.begin_array();
  for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
    const RankStats& stats = ranks[rank];
    json.begin_object();
    json.key("rank");
    json.value(static_cast<std::uint64_t>(rank));
    json.key("wall_seconds");
    json.value(sim::to_seconds(stats.wall));
    json.key("tasks");
    json.value(stats.tasks_processed);
    json.key("bytes_written");
    json.value(stats.bytes_written);
    json.key("fragment_loads");
    json.value(stats.fragment_loads);
    json.key("phases");
    json.begin_object();
    for (const Phase phase : all_phases()) {
      json.key(phase_name(phase));
      json.value(stats.phases.seconds(phase));
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::string RunStats::summary() const {
  std::ostringstream out;
  out << strategy_name(strategy) << " procs=" << nprocs
      << (query_sync ? " sync" : " no-sync") << " speed=" << compute_speed
      << ": wall " << util::format_fixed(wall_seconds) << " s, output "
      << util::format_bytes(output_bytes)
      << (file_exact ? " (verified)" : " (VERIFICATION FAILED)");
  return out.str();
}

}  // namespace s3asim::core
