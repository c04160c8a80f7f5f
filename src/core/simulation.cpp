/// \file simulation.cpp
/// The public drivers: single-master, crash/resume, and hybrid
/// (multi-master) runs.  Everything below is orchestration — World and App
/// construction plus the scheduler run loop; the master/worker algorithms
/// live in master_runtime.cpp / worker_runtime.cpp, the per-strategy I/O
/// policy under strategies/, and the end-of-run accounting in
/// obs_bridge.cpp.

#include "core/simulation.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace s3asim::core {

RunStats run_simulation(const SimConfig& config, trace::TraceLog* trace_log) {
  return run_simulation(config, Observability{trace_log, nullptr});
}

namespace {

/// The multi-master drivers are closed-batch facilities: they partition a
/// fixed query set up front, which has no meaning under open-loop arrivals.
void reject_serving(const SimConfig& config, const char* driver) {
  S3A_REQUIRE_MSG(!config.serving.enabled(),
                  std::string(driver) +
                      " is a closed-batch driver; disable the serving "
                      "workload (arrival_rate / arrival_trace) to use it");
}

}  // namespace

RunStats run_simulation(const SimConfig& config, const Observability& observe) {
  S3A_REQUIRE_MSG(config.nprocs >= 2, "need a master and at least one worker");
  std::vector<mpi::Rank> workers;
  for (mpi::Rank rank = 1; rank < config.nprocs; ++rank)
    workers.push_back(rank);
  validate_fault_plan(config, {workers.begin(), workers.end()});
  validate_serving(config);
  validate_membership(config);

  World world(config, config.nprocs);
  world.attach_observability(observe);
  // Closed batch: every query exists up front.  Serving mode: the list
  // starts empty and grows as arrivals are admitted and dispatched.
  std::vector<std::uint32_t> queries;
  if (!config.serving.enabled())
    for (std::uint32_t q = 0; q < config.workload.query_count; ++q)
      queries.push_back(q);

  std::vector<std::unique_ptr<App>> groups;
  groups.push_back(
      std::make_unique<App>(world, 0, std::move(workers), std::move(queries)));
  groups.back()->trace_log = observe.trace_log;
  launch_group(*groups.back());

  world.scheduler.run();
  world.fs.shutdown();
  world.scheduler.run();
  S3A_CHECK_MSG(world.scheduler.live_processes() == 0,
                "simulation did not quiesce");
  return collect_stats(world, groups);
}

ResumeOutcome run_with_resume(const SimConfig& config,
                              trace::TraceLog* trace_log) {
  return run_with_resume(config, Observability{trace_log, nullptr});
}

ResumeOutcome run_with_resume(const SimConfig& config,
                              const Observability& observe) {
  reject_serving(config, "run_with_resume");
  S3A_REQUIRE_MSG(!config.membership.dynamic(),
                  "run_with_resume is a fixed-membership driver; drop "
                  "elastic/joins to use it");
  ResumeOutcome outcome;

  // The run that (possibly) crashes: the configured plan minus the crash
  // itself — replaying it failure-free-to-completion yields both the
  // no-crash baseline and the batch-durability timeline the resume logic
  // needs.
  SimConfig base = config;
  const sim::Time crash_at = config.fault.crash_at;
  base.fault.crash_at = fault::kNever;
  outcome.full = run_simulation(base, observe);

  if (crash_at == fault::kNever ||
      sim::to_seconds(crash_at) >= outcome.full.wall_seconds) {
    // No crash, or the crash lands after the run already finished.
    outcome.total_seconds = outcome.full.wall_seconds;
    return outcome;
  }
  outcome.crashed = true;
  outcome.crashed_seconds = sim::to_seconds(crash_at);

  // Resume from the last flushed query boundary: batches whose results were
  // durable before the crash are never recomputed (§2's rationale for
  // flushing after every query).
  std::uint32_t flushed_batches = 0;
  for (const double at : outcome.full.batch_complete_seconds)
    if (at <= outcome.crashed_seconds) ++flushed_batches;
  const std::uint32_t flushed_queries =
      std::min(config.workload.query_count,
               flushed_batches * config.queries_per_flush);
  outcome.resume_query = flushed_queries;

  if (flushed_queries < config.workload.query_count) {
    // Tail run over the surviving query subset.  The restart is clean: the
    // original fault plan's injected failures already happened in the
    // crashed attempt and are not replayed.
    SimConfig tail = config;
    tail.fault = fault::FaultPlan{};

    World world(tail, tail.nprocs);
    world.attach_observability(observe);
    std::vector<mpi::Rank> workers;
    for (mpi::Rank rank = 1; rank < tail.nprocs; ++rank)
      workers.push_back(rank);
    std::vector<std::uint32_t> queries;
    for (std::uint32_t q = flushed_queries; q < tail.workload.query_count; ++q)
      queries.push_back(q);

    std::vector<std::unique_ptr<App>> groups;
    groups.push_back(std::make_unique<App>(world, 0, std::move(workers),
                                           std::move(queries)));
    launch_group(*groups.back());
    world.scheduler.run();
    world.fs.shutdown();
    world.scheduler.run();
    S3A_CHECK_MSG(world.scheduler.live_processes() == 0,
                  "resumed simulation did not quiesce");
    outcome.resumed = collect_stats(world, groups);
    outcome.resumed_seconds = outcome.resumed.wall_seconds;
  }
  outcome.total_seconds = outcome.crashed_seconds + outcome.resumed_seconds;
  return outcome;
}

RunStats run_hybrid_simulation(const SimConfig& config, std::uint32_t groups,
                               trace::TraceLog* trace_log) {
  return run_hybrid_simulation(config, groups,
                               Observability{trace_log, nullptr});
}

RunStats run_hybrid_simulation(const SimConfig& config, std::uint32_t groups,
                               const Observability& observe) {
  reject_serving(config, "run_hybrid_simulation");
  S3A_REQUIRE_MSG(!config.membership.dynamic(),
                  "run_hybrid_simulation is a fixed-membership driver; drop "
                  "elastic/joins to use it (worker_classes alone are fine)");
  S3A_REQUIRE_MSG(groups >= 1, "need at least one group");
  S3A_REQUIRE_MSG(config.nprocs % groups == 0,
                  "nprocs must be divisible by the group count");
  const std::uint32_t per_group = config.nprocs / groups;
  S3A_REQUIRE_MSG(per_group >= 2,
                  "each group needs a master and at least one worker");
  S3A_REQUIRE_MSG(groups <= config.workload.query_count,
                  "more groups than queries");
  std::set<mpi::Rank> all_workers;
  for (mpi::Rank rank = 0; rank < config.nprocs; ++rank)
    if (rank % per_group != 0) all_workers.insert(rank);
  validate_fault_plan(config, all_workers);
  validate_membership(config);

  World world(config, config.nprocs);
  world.attach_observability(observe);

  std::vector<std::unique_ptr<App>> apps;
  for (std::uint32_t g = 0; g < groups; ++g) {
    const mpi::Rank base = g * per_group;
    std::vector<mpi::Rank> workers;
    for (mpi::Rank rank = base + 1; rank < base + per_group; ++rank)
      workers.push_back(rank);
    // Round-robin query split (query segmentation across groups).
    std::vector<std::uint32_t> queries;
    for (std::uint32_t q = g; q < config.workload.query_count; q += groups)
      queries.push_back(q);
    apps.push_back(std::make_unique<App>(world, base, std::move(workers),
                                         std::move(queries)));
    apps.back()->trace_log = observe.trace_log;
  }
  for (const auto& app : apps) launch_group(*app);

  world.scheduler.run();
  world.fs.shutdown();
  world.scheduler.run();
  S3A_CHECK_MSG(world.scheduler.live_processes() == 0,
                "hybrid simulation did not quiesce");
  return collect_stats(world, apps);
}

}  // namespace s3asim::core
