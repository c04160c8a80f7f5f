/// \file obs_bridge.cpp
/// The publishing side of observability: wiring the sinks into a World,
/// collecting the end-of-run statistics, and materializing every layer's
/// aggregates into the metrics registry.  Zero-perturbation contract:
/// nothing here runs inside simulated time.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "util/log.hpp"

namespace s3asim::core {

void World::attach_observability(const Observability& observe) {
  trace_log = observe.trace_log;
  metrics = observe.metrics;
  if (observe.metrics != nullptr) {
    scheduler.attach_profiler(observe.metrics);
    if (observe.trace_log != nullptr)
      observe.trace_log->attach_registry(observe.metrics);
  }
  if (observe.enabled()) {
    obs_bridge =
        std::make_unique<ObsBridge>(observe.trace_log, observe.metrics);
    fs.set_observer(obs_bridge.get());
    comm.set_observer(obs_bridge.get());
  }
}

namespace {

/// Exact nearest-rank percentile over an ascending latency list (no
/// interpolation: reported tails are observed samples).
double latency_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

TenantServingStats tenant_serving_stats(std::string name,
                                        std::uint64_t offered,
                                        std::uint64_t shed,
                                        std::uint64_t completed,
                                        std::vector<double> latencies) {
  TenantServingStats out;
  out.name = std::move(name);
  out.offered = offered;
  out.shed = shed;
  out.admitted = offered - shed;
  out.completed = completed;
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    out.mean_seconds = sum / static_cast<double>(latencies.size());
    out.p50_seconds = latency_percentile(latencies, 50.0);
    out.p95_seconds = latency_percentile(latencies, 95.0);
    out.p99_seconds = latency_percentile(latencies, 99.0);
    out.max_seconds = latencies.back();
  }
  return out;
}

/// Folds one group's serving context into the run's serving aggregates
/// (per-tenant and overall latency distributions, stream accounting).
void fill_serving_stats(RunStats& stats, const ServingContext& serving) {
  stats.serving.enabled = true;
  stats.serving.inflight_peak_bytes = serving.inflight_peak_bytes;
  std::vector<double> all;
  for (std::size_t t = 0; t < serving.tenants.size(); ++t) {
    std::vector<double> lat;
    lat.reserve(serving.latencies[t].size());
    for (const sim::Time l : serving.latencies[t])
      lat.push_back(sim::to_seconds(l));
    all.insert(all.end(), lat.begin(), lat.end());
    stats.serving.tenants.push_back(tenant_serving_stats(
        serving.tenants[t].name, serving.offered[t],
        serving.queue.shed_by_tenant()[t], serving.completed[t],
        std::move(lat)));
  }
  stats.serving.overall = tenant_serving_stats(
      "all", serving.offered_total(), serving.queue.shed_total(),
      serving.completed_total(), std::move(all));
  if (stats.wall_seconds > 0.0)
    stats.serving.goodput_qps =
        static_cast<double>(serving.completed_total()) / stats.wall_seconds;
}

/// Folds the groups' worker registries into the run's membership block:
/// lifecycle outcome, provisioning cost, join latencies, and the actual
/// per-worker effective speeds (compute_speed × speed_factor — fixing the
/// stats echo that reported only the base compute_speed under jitter).
/// Emitted when membership is configured or jitter makes speeds
/// heterogeneous; plain runs carry no block and stay byte-identical.
void fill_membership_stats(RunStats& stats, const World& world,
                           const std::vector<std::unique_ptr<App>>& groups) {
  const SimConfig& config = world.config;
  if (!config.membership.configured() && config.compute_speed_jitter <= 0.0)
    return;
  MembershipStats& membership = stats.membership;
  membership.enabled = true;
  for (const SpeedClass& cls : config.membership.classes)
    membership.classes.push_back({cls.name, cls.speed, 0});
  double speed_sum = 0.0;
  std::uint32_t speed_count = 0;
  double latency_sum = 0.0;
  std::uint32_t latency_count = 0;
  const sim::Time end = world.scheduler.now();
  for (const auto& app : groups) {
    const WorkerRegistry& registry = *app->registry;
    membership.epoch += registry.epoch();
    membership.participants += registry.participant_count();
    membership.peak_active += registry.peak_active();
    membership.final_active += registry.active_count();
    membership.joins += registry.joins_completed();
    membership.drains += registry.drains_completed();
    membership.deaths += registry.count(WorkerLifecycle::Dead);
    membership.worker_seconds += registry.worker_seconds(end);
    for (const double latency : registry.join_latencies()) {
      latency_sum += latency;
      membership.join_latency_max_seconds =
          std::max(membership.join_latency_max_seconds, latency);
      ++latency_count;
    }
    for (const WorkerRecord& record : registry.records()) {
      const double speed = config.compute_speed * record.speed_factor;
      if (speed_count == 0) {
        membership.speed_min = speed;
        membership.speed_max = speed;
      } else {
        membership.speed_min = std::min(membership.speed_min, speed);
        membership.speed_max = std::max(membership.speed_max, speed);
      }
      speed_sum += speed;
      ++speed_count;
      if (record.class_index < membership.classes.size())
        ++membership.classes[record.class_index].workers;
    }
  }
  if (speed_count > 0)
    membership.speed_mean = speed_sum / static_cast<double>(speed_count);
  if (latency_count > 0)
    membership.join_latency_mean_seconds =
        latency_sum / static_cast<double>(latency_count);
}

/// Publishes every layer's end-of-run aggregates into the registry under
/// the stable dotted names of the docs/OBSERVABILITY.md catalog.  Counters
/// *add* (so a crash+resume invocation accumulates across its runs);
/// gauges describe the whole invocation so far.  The live histograms
/// ("pfs.*.service_seconds", "mpi.message.*", "sim.sched.*") were filled
/// during the run by the observer bridge and scheduler profiler.
void publish_metrics(World& world,
                     const std::vector<std::unique_ptr<App>>& groups,
                     const RunStats& stats,
                     const pfs::ServerStats& fs_total) {
  obs::Registry& registry = *world.metrics;

  // core.* — application-level outcome.
  registry.gauge("core.wall_seconds").add(stats.wall_seconds);
  registry.counter("core.output_bytes").add(stats.output_bytes);
  registry.counter("core.db_bytes_read").add(stats.db_bytes_read);
  registry.gauge("core.file_exact").set(stats.file_exact ? 1.0 : 0.0);
  std::uint64_t tasks = 0;
  std::uint64_t fragment_loads = 0;
  std::uint64_t fragment_hits = 0;
  for (const RankStats& rank : stats.ranks) {
    tasks += rank.tasks_processed;
    fragment_loads += rank.fragment_loads;
    fragment_hits += rank.fragment_hits;
  }
  registry.counter("core.tasks_processed").add(tasks);
  registry.counter("core.fragment_loads").add(fragment_loads);
  registry.counter("core.fragment_hits").add(fragment_hits);
  for (const Phase phase : all_phases()) {
    // "Data Distribution" -> data_distribution, "I/O" -> io: dotted metric
    // names stay lowercase [a-z0-9_].
    std::string key;
    for (const char c : std::string_view(phase_name(phase))) {
      if (std::isalnum(static_cast<unsigned char>(c)))
        key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      else if (c == ' ')
        key += '_';
    }
    registry.gauge("core.phase." + key + "_seconds")
        .add(stats.worker_mean_seconds(phase));
  }

  // sim.* — DES-kernel totals (the profiler's histograms ride alongside).
  registry.counter("sim.sched.events")
      .add(world.scheduler.events_processed());
  registry.counter("sim.sched.finished_processes")
      .add(world.scheduler.finished_processes());
  registry.gauge("sim.sched.cancel_slots")
      .set(static_cast<double>(world.scheduler.cancel_slots_allocated()));

  // pfs.* — the per-server counters, aggregated (ServerStats-style
  // hand-aggregation now feeds the registry instead of ad-hoc callers).
  registry.counter("pfs.write.requests").add(fs_total.requests);
  registry.counter("pfs.write.pairs").add(fs_total.pairs);
  registry.counter("pfs.write.bytes").add(fs_total.bytes);
  registry.counter("pfs.read.requests").add(fs_total.reads);
  registry.counter("pfs.read.bytes").add(fs_total.read_bytes);
  // Present only when the run actually read (write-only manifests stay
  // byte-identical to pre-read-path builds).
  if (fs_total.reads > 0)
    registry.counter("pfs.read.pairs").add(fs_total.read_pairs);
  registry.counter("pfs.sync.requests").add(fs_total.syncs);
  registry.gauge("pfs.busy_seconds").add(sim::to_seconds(fs_total.busy));

  // pfs.cache.* / pfs.metadata.* — client-cache and token-consistency
  // counters (absent when the cache is off, keeping cache-off manifests
  // byte-identical to pre-cache builds).
  if (stats.cache.enabled) {
    registry.counter("pfs.cache.read_hits").add(stats.cache.read_hits);
    registry.counter("pfs.cache.read_misses").add(stats.cache.read_misses);
    registry.counter("pfs.cache.write_hits").add(stats.cache.write_hits);
    registry.counter("pfs.cache.write_misses").add(stats.cache.write_misses);
    registry.counter("pfs.cache.evictions").add(stats.cache.evictions);
    registry.counter("pfs.cache.writebacks").add(stats.cache.writebacks);
    registry.counter("pfs.cache.writeback_bytes")
        .add(stats.cache.writeback_bytes);
    registry.counter("pfs.cache.invalidations")
        .add(stats.cache.invalidations);
    registry.counter("pfs.cache.close_writebacks")
        .add(stats.cache.close_writebacks);
    registry.counter("pfs.cache.token_grants").add(stats.cache.token_grants);
    registry.counter("pfs.cache.token_revocations")
        .add(stats.cache.token_revocations);
    registry.counter("pfs.cache.token_conflicts")
        .add(stats.cache.token_conflicts);
    registry.counter("pfs.metadata.requests").add(stats.cache.metadata_ops);
    registry.gauge("pfs.metadata.busy_seconds")
        .add(stats.cache.metadata_busy_seconds);
  }

  // pfs.sieve.* — data-sieving counters (absent unless a sieved access
  // ran, keeping sieve-free manifests byte-identical).
  if (stats.sieve.enabled) {
    registry.counter("pfs.sieve.reads").add(stats.sieve.reads);
    registry.counter("pfs.sieve.writes").add(stats.sieve.writes);
    registry.counter("pfs.sieve.rmw_reads").add(stats.sieve.rmw_reads);
    registry.counter("pfs.sieve.holes_protected")
        .add(stats.sieve.holes_protected);
    registry.counter("pfs.sieve.read_bytes_amplified")
        .add(stats.sieve.read_transferred_bytes - stats.sieve.read_useful_bytes);
    registry.counter("pfs.sieve.write_bytes_amplified")
        .add(stats.sieve.write_transferred_bytes -
             stats.sieve.write_useful_bytes);
  }

  // net.* — NIC totals over every endpoint (ranks and servers).
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  sim::Time tx_busy = 0;
  sim::Time rx_busy = 0;
  for (std::uint32_t id = 0; id < world.network.endpoint_count(); ++id) {
    const net::EndpointCounters& counters = world.network.counters(id);
    sent += counters.messages_sent;
    received += counters.messages_received;
    bytes_sent += counters.bytes_sent;
    bytes_received += counters.bytes_received;
    tx_busy += counters.tx_busy;
    rx_busy += counters.rx_busy;
  }
  registry.counter("net.messages_sent").add(sent);
  registry.counter("net.messages_received").add(received);
  registry.counter("net.bytes_sent").add(bytes_sent);
  registry.counter("net.bytes_received").add(bytes_received);
  registry.gauge("net.tx_busy_seconds").add(sim::to_seconds(tx_busy));
  registry.gauge("net.rx_busy_seconds").add(sim::to_seconds(rx_busy));

  // mpiio.* — collective stall, summed over every group's output file (the
  // only files `write_at_all` ever runs on).
  sim::Time collective_wait = 0;
  for (const auto& app : groups)
    if (app->file) collective_wait += app->file->total_collective_wait();
  registry.gauge("mpiio.collective_wait_seconds")
      .add(sim::to_seconds(collective_wait));

  // fault.* — recovery-subsystem outcome.
  registry.counter("fault.workers_died").add(stats.faults.workers_died);
  registry.counter("fault.workers_retired").add(stats.faults.workers_retired);
  registry.counter("fault.tasks_reassigned")
      .add(stats.faults.tasks_reassigned);
  registry.counter("fault.duplicate_completions")
      .add(stats.faults.duplicate_completions);
  registry.counter("fault.scores_dropped").add(stats.faults.scores_dropped);
  registry.counter("fault.repaired_bytes").add(stats.faults.repaired_bytes);

  // serving.* — open-loop workload outcome (absent on closed-batch runs,
  // keeping their manifests byte-identical).
  if (stats.serving.enabled) {
    registry.counter("serving.offered").add(stats.serving.overall.offered);
    registry.counter("serving.admitted").add(stats.serving.overall.admitted);
    registry.counter("serving.shed").add(stats.serving.overall.shed);
    registry.counter("serving.completed").add(stats.serving.overall.completed);
    registry.gauge("serving.goodput_qps").add(stats.serving.goodput_qps);
    registry.gauge("serving.inflight_peak_bytes")
        .set(static_cast<double>(stats.serving.inflight_peak_bytes));
    obs::Histogram& overall = registry.histogram("serving.latency_seconds");
    for (const auto& app : groups) {
      if (app->serving == nullptr) continue;
      const ServingContext& serving = *app->serving;
      for (std::size_t t = 0; t < serving.tenants.size(); ++t) {
        obs::Histogram& tenant = registry.histogram(
            "serving.tenant." + serving.tenants[t].name + ".latency_seconds");
        for (const sim::Time l : serving.latencies[t]) {
          const double seconds = sim::to_seconds(l);
          overall.observe(seconds);
          tenant.observe(seconds);
        }
      }
    }
  }

  // membership.* — cluster-membership outcome (absent on fixed
  // homogeneous runs, keeping their manifests byte-identical).
  if (stats.membership.enabled) {
    registry.counter("membership.epoch").add(stats.membership.epoch);
    registry.gauge("membership.participants")
        .set(static_cast<double>(stats.membership.participants));
    registry.gauge("membership.peak_active")
        .set(static_cast<double>(stats.membership.peak_active));
    registry.gauge("membership.final_active")
        .set(static_cast<double>(stats.membership.final_active));
    std::uint32_t draining = 0;
    for (const auto& app : groups)
      draining += app->registry->count(WorkerLifecycle::Draining);
    registry.gauge("membership.draining").set(static_cast<double>(draining));
    registry.counter("membership.joins").add(stats.membership.joins);
    registry.counter("membership.drains").add(stats.membership.drains);
    registry.counter("membership.deaths").add(stats.membership.deaths);
    registry.gauge("membership.worker_seconds")
        .add(stats.membership.worker_seconds);
    obs::Histogram& join_latency =
        registry.histogram("membership.join_latency_seconds");
    for (const auto& app : groups)
      for (const double latency : app->registry->join_latencies())
        join_latency.observe(latency);
    registry.gauge("membership.speed_min").set(stats.membership.speed_min);
    registry.gauge("membership.speed_max").set(stats.membership.speed_max);
    registry.gauge("membership.speed_mean").set(stats.membership.speed_mean);
    for (const ClassStats& cls : stats.membership.classes) {
      registry.gauge("membership.class." + cls.name + ".speed")
          .set(cls.speed);
      registry.gauge("membership.class." + cls.name + ".workers")
          .set(static_cast<double>(cls.workers));
    }
  }

  // trace.* — the drop counter is incremented live via
  // TraceLog::attach_registry; materialize it here so drop-free (or
  // trace-less) runs still carry an explicit zero in the manifest.
  registry.counter("trace.intervals_dropped").add(0);
}

}  // namespace

RunStats collect_stats(World& world,
                       const std::vector<std::unique_ptr<App>>& groups) {
  RunStats stats;
  stats.strategy = world.config.strategy;
  stats.nprocs = static_cast<std::uint32_t>(world.rank_stats.size());
  stats.query_sync = world.config.query_sync;
  stats.compute_speed = world.config.compute_speed;
  stats.groups = static_cast<std::uint32_t>(groups.size());
  stats.wall_seconds = sim::to_seconds(world.scheduler.now());
  stats.events = world.scheduler.events_processed();
  stats.ranks = std::move(world.rank_stats);

  // Expected output = the sum of the groups' regions (equals the workload
  // total for full runs; smaller for a resumed tail over a query subset).
  stats.output_bytes = 0;
  stats.file_exact = true;
  for (const auto& app : groups) {
    stats.output_bytes += app->group_output_bytes;
    const pfs::FileImage& image = world.fs.image(app->file->handle());
    stats.bytes_covered += image.covered_bytes();
    stats.overlap_count += image.overlap_count();
    if (!image.covers_exactly(app->group_output_bytes)) stats.file_exact = false;
    if (app->database_file)
      stats.db_bytes_read += world.fs.bytes_read(app->database_file->handle());

    stats.faults.workers_died += app->faults.workers_died;
    stats.faults.workers_retired += app->faults.workers_retired;
    stats.faults.tasks_reassigned += app->faults.tasks_reassigned;
    stats.faults.duplicate_completions += app->faults.duplicate_completions;
    stats.faults.scores_dropped += app->faults.scores_dropped;
    stats.faults.repaired_bytes += app->faults.repaired_bytes;
    for (const sim::Time at : app->batch_complete_times)
      stats.batch_complete_seconds.push_back(sim::to_seconds(at));
    if (app->serving != nullptr) fill_serving_stats(stats, *app->serving);
    if (world.trace_log != nullptr) {
      for (const auto& [rank, at] : app->death_times)
        world.trace_log->record(rank, "Dead", at, world.scheduler.now());
    }
  }
  std::sort(stats.batch_complete_seconds.begin(),
            stats.batch_complete_seconds.end());
  if (stats.bytes_covered != stats.output_bytes) stats.file_exact = false;
  fill_membership_stats(stats, world, groups);

  const pfs::ServerStats fs_total = world.fs.aggregate_stats();
  stats.fs.server_requests = fs_total.requests;
  stats.fs.server_pairs = fs_total.pairs;
  stats.fs.server_bytes = fs_total.bytes;
  stats.fs.server_syncs = fs_total.syncs;
  stats.fs.server_busy_seconds = sim::to_seconds(fs_total.busy);

  if (world.fs.cache_enabled()) {
    const pfs::CacheStats cache_total = world.fs.cache_stats();
    stats.cache.enabled = true;
    stats.cache.read_hits = cache_total.read_hits;
    stats.cache.read_misses = cache_total.read_misses;
    stats.cache.write_hits = cache_total.write_hits;
    stats.cache.write_misses = cache_total.write_misses;
    stats.cache.evictions = cache_total.evictions;
    stats.cache.writebacks = cache_total.writebacks;
    stats.cache.writeback_bytes = cache_total.writeback_bytes;
    stats.cache.invalidations = cache_total.invalidations;
    stats.cache.close_writebacks = cache_total.close_writebacks;
    stats.cache.token_grants = cache_total.token_grants;
    stats.cache.token_revocations = cache_total.token_revocations;
    stats.cache.token_conflicts = cache_total.token_conflicts;
    stats.cache.metadata_ops = fs_total.metadata_ops;
    stats.cache.metadata_busy_seconds = sim::to_seconds(fs_total.metadata_busy);
  }

  const pfs::SieveStats& sieve_total = world.fs.sieve_stats();
  if (sieve_total.used()) {
    stats.sieve.enabled = true;
    stats.sieve.reads = sieve_total.reads;
    stats.sieve.writes = sieve_total.writes;
    stats.sieve.rmw_reads = sieve_total.rmw_reads;
    stats.sieve.holes_protected = sieve_total.holes_protected;
    stats.sieve.read_useful_bytes = sieve_total.read_useful_bytes;
    stats.sieve.read_transferred_bytes = sieve_total.read_transferred_bytes;
    stats.sieve.write_useful_bytes = sieve_total.write_useful_bytes;
    stats.sieve.write_transferred_bytes = sieve_total.write_transferred_bytes;
  }

  if (world.metrics != nullptr)
    publish_metrics(world, groups, stats, fs_total);

  S3A_LOG_INFO(stats.summary());
  return stats;
}

}  // namespace s3asim::core
