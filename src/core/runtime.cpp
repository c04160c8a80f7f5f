#include "core/runtime.hpp"

#include <algorithm>
#include <cmath>

#include "core/protocol.hpp"
#include "core/strategies/registry.hpp"

namespace s3asim::core {

pfs::PfsParams faulted_pfs(const SimConfig& cfg) {
  pfs::PfsParams params = cfg.model.pfs;
  for (const fault::ServerFault& f : cfg.fault.servers)
    params.degradations.push_back(
        pfs::ServerDegradation{f.server, f.from, f.service_factor, f.stall});
  return params;
}

World::World(const SimConfig& cfg)
    : config(cfg),
      workload(cfg.workload, worker_writes(cfg.strategy)),
      scheduler(),
      network(scheduler, cfg.nprocs + cfg.model.pfs.layout.server_count(),
              cfg.model.network),
      comm(scheduler, network, cfg.nprocs),
      fs(scheduler, network, /*server_endpoint_base=*/cfg.nprocs,
         faulted_pfs(cfg)),
      rank_stats(cfg.nprocs) {
  S3A_REQUIRE(cfg.compute_speed > 0.0);
  S3A_REQUIRE(cfg.queries_per_flush >= 1);
}

App::App(World& w, mpi::Rank master_rank, std::vector<mpi::Rank> worker_ranks,
         std::vector<std::uint32_t> query_ids, trace::TraceLog* phase_trace)
    : world(w),
      config(w.config),
      workload(w.workload),
      scheduler(w.scheduler),
      network(w.network),
      comm(w.comm),
      fs(w.fs),
      rank_stats(w.rank_stats),
      trace_log(phase_trace),
      master(master_rank),
      workers(std::move(worker_ranks)),
      queries(std::move(query_ids)),
      query_barrier(w.scheduler, std::max<std::size_t>(workers.size(), 1)) {
  S3A_REQUIRE_MSG(!workers.empty(), "a group needs at least one worker");
  S3A_REQUIRE_MSG(!queries.empty() || config.serving.enabled(),
                  "a group needs at least one query");
  while (events.size() < workers.size())
    events.push_back(std::make_unique<sim::Channel<mpi::Message>>(scheduler));
  request_wake = std::make_unique<sim::Channel<int>>(scheduler);
  scores_wake = std::make_unique<sim::Channel<int>>(scheduler);
  if (config.serving.enabled()) {
    serving = std::make_unique<ServingContext>(config);
  }
  // Membership ledger before anything queries worker_speed.  On a
  // fixed-membership run everyone is Active from t=0 and the registry is
  // pure host-side bookkeeping (byte-identity preserved).
  registry = std::make_unique<WorkerRegistry>(
      config.membership, workers, config.workload.seed,
      config.compute_speed_jitter);
  for (const mpi::Rank rank : workers) {
    const WorkerRecord& record = registry->record(rank);
    if (record.scheduled_join != kNoScheduledJoin)
      join_timers.emplace(rank, std::make_unique<sim::Timer>(scheduler));
    else if (record.initially_standby)
      activations.emplace(rank,
                          std::make_unique<sim::Channel<int>>(scheduler));
  }
  if (config.membership.elastic)
    autoscaler = std::make_unique<AutoscalePolicy>(
        config.membership.autoscale_target,
        config.membership.autoscale_cooldown);
  // Scheduled closed-batch joins take the event loop's recovery branch
  // (its termination condition counts results, not workers); elastic
  // takes its serving branch.
  recovery_mode = config.fault.perturbs_workers() ||
                  (config.membership.dynamic() && !config.serving.enabled());
  if (recovery_mode) {
    for (const mpi::Rank rank : workers) {
      auto probe = std::make_unique<ProbeCtl>();
      probe->timer = std::make_unique<sim::Timer>(scheduler);
      probe->armed = std::make_unique<sim::Channel<int>>(scheduler);
      probes.emplace(rank, std::move(probe));
    }
  }
  // Group-local file layout: the group's queries packed back to back.
  region_bases.reserve(queries.size());
  std::uint64_t cursor = 0;
  for (const std::uint32_t query : queries) {
    region_bases.push_back(cursor);
    cursor += workload.summary(query).total_bytes;
  }
  group_output_bytes = cursor;

  // The group's I/O policy, behind its capability bundle.  The env's file
  // is wired later (master setup).
  strategy = make_strategy(config.strategy);
  env = std::make_unique<StrategyEnv>(
      scheduler, config, comm, fs, network, master, workers, rank_stats,
      OffsetService(workload, queries, region_bases),
      ResultRouter(comm, config.model, master, queries));
  env->trace_log = trace_log;
  env->per_query_msgs_to_all =
      config.query_sync || lockstep_flush(config.strategy);
  strategy->attach(*env);
}

sim::Time App::compute_time(std::uint32_t query, std::uint32_t fragment,
                            mpi::Rank rank) const {
  const std::uint64_t bytes = workload.fragment_result_bytes(query, fragment);
  const double nanos =
      static_cast<double>(config.model.compute_startup) +
      static_cast<double>(bytes) * config.model.compute_ns_per_result_byte;
  // Injected stragglers: active slowdowns multiply the search time.
  const double slow = config.fault.slow_factor(rank, scheduler.now());
  return static_cast<sim::Time>(
      std::llround(nanos * slow / worker_speed(rank)));
}

void launch_group(App& app) {
  app.scheduler.spawn(master_process(app));
  app.scheduler.spawn(master_pump(app, kTagRequest));
  app.scheduler.spawn(master_scores_pump(app));
  if (app.serving != nullptr) app.scheduler.spawn(serving_arrival_process(app));
  if (app.config.membership.dynamic())
    app.scheduler.spawn(master_pump(app, kTagJoin));
  for (const mpi::Rank rank : app.workers) {
    app.scheduler.spawn(worker_process(app, rank));
    app.scheduler.spawn(worker_stream_pump(app, rank));
    if (app.recovery_mode) {
      app.scheduler.spawn(worker_probe(app, rank));
      const sim::Time kill_at = app.config.fault.kill_time(rank);
      if (kill_at != fault::kNever) {
        app.reaper_timers.push_back(
            std::make_unique<sim::Timer>(app.scheduler));
        app.scheduler.spawn(
            worker_reaper(app, rank, kill_at, *app.reaper_timers.back()));
      }
    }
  }
}

/// Masters are single points of failure by design (the paper's model), and
/// a fault against a nonexistent rank is a spec typo the user should hear
/// about.  WW-Aggr's lockstep aggregation cannot survive perturbed workers
/// (a waiting aggregator would deadlock), so that combination is rejected
/// too — with a pointer at the alternatives.
void validate_fault_plan(const SimConfig& config,
                         const std::set<mpi::Rank>& valid) {
  // The client cache holds dirty data that a killed worker (or a
  // whole-run crash) would silently lose while the file image already
  // recorded it at absorb time — output verification would falsely pass.
  // Until revocation-on-death is modeled, reject the combination; slow /
  // delay / drop / server faults leave every client alive to flush and
  // remain allowed.
  S3A_REQUIRE_MSG(!(config.model.pfs.cache.enabled() &&
                    (!config.fault.kills.empty() ||
                     config.fault.crash_at != fault::kNever)),
                  "worker-kill and crash fault plans are not supported with "
                  "the client cache (cache_capacity > 0): a dead client's "
                  "write-back data would be lost silently; disable the cache "
                  "or use slow/delay/drop/server faults");
  S3A_REQUIRE_MSG(
      !(config.strategy == Strategy::WWAggr &&
        config.fault.perturbs_workers()),
      "WW-Aggr aggregation groups advance in lockstep, so worker "
      "kill/slowdown/drop/delay plans would deadlock the aggregator; use a "
      "server fault or crash/resume plan, or pick another strategy (e.g. "
      "WW-List)");
  const auto check = [&valid](std::uint32_t rank) {
    S3A_REQUIRE_MSG(valid.contains(rank),
                    "fault plan names a rank that is not a worker");
  };
  for (const fault::WorkerKill& kill : config.fault.kills) check(kill.rank);
  for (const fault::WorkerSlow& slow : config.fault.slowdowns) check(slow.rank);
  for (const fault::ScoreDelay& delay : config.fault.delays) check(delay.rank);
  for (const fault::ScoreDrop& drop : config.fault.drops) check(drop.rank);
}

}  // namespace s3asim::core
