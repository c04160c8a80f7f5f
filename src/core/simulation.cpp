/// \file simulation.cpp
/// The public driver: one `run_simulation` for plain, hybrid (`groups` > 1)
/// and crash/resume (`fault.crash_at`) runs.  Everything below is
/// orchestration — validation, World and App construction plus the
/// scheduler run loop; the master/worker algorithms live in
/// master_runtime.cpp / worker_runtime.cpp, the per-strategy I/O policy
/// under strategies/, and the end-of-run accounting in obs_bridge.cpp.

#include "core/simulation.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace s3asim::core {

namespace {

/// Rejects, naming its key, every configuration the driver cannot run,
/// then runs the fault, serving and membership validators.  Called before
/// the World is built — spawned server processes would outlive a throwing
/// constructor path.
void validate(const SimConfig& config) {
  const std::uint32_t groups = config.groups;
  const auto shape = [&config] {
    return " (nprocs = " + std::to_string(config.nprocs) +
           ", groups = " + std::to_string(config.groups) + ")";
  };
  S3A_REQUIRE_MSG(config.nprocs >= 2,
                  "key 'nprocs': need a master and at least one worker");
  S3A_REQUIRE_MSG(groups >= 1, "key 'groups': must be at least 1");
  S3A_REQUIRE_MSG(config.nprocs % groups == 0,
                  "key 'groups': must divide nprocs" + shape());
  S3A_REQUIRE_MSG(config.nprocs / groups >= 2,
                  "key 'groups': each group needs a master and at least one "
                  "worker" + shape());
  S3A_REQUIRE_MSG(groups <= config.workload.query_count,
                  "key 'groups': more groups than queries (query_count = " +
                      std::to_string(config.workload.query_count) + ")");
  const bool crash = config.fault.crash_at != fault::kNever;
  if (groups > 1) {
    S3A_REQUIRE_MSG(!config.membership.dynamic(),
                    "key 'groups': hybrid groups run a fixed membership; drop "
                    "'joins'/'elastic' or set groups = 1");
    S3A_REQUIRE_MSG(!config.serving.enabled(),
                    "key 'groups': hybrid groups split a closed query batch; "
                    "drop 'arrival_rate'/'arrival_trace' or set groups = 1");
    S3A_REQUIRE_MSG(!crash,
                    "key 'groups': resume-from-flush restarts a single group; "
                    "drop the 'crash' fault clause or set groups = 1");
  }
  S3A_REQUIRE_MSG(!(crash && config.membership.dynamic()),
                  "the 'crash' fault clause restarts a fixed membership; drop "
                  "'joins'/'elastic' or the crash");

  const std::uint32_t per_group = config.nprocs / groups;
  std::set<mpi::Rank> workers;
  for (mpi::Rank rank = 0; rank < config.nprocs; ++rank)
    if (rank % per_group != 0) workers.insert(rank);
  validate_fault_plan(config, workers);
  validate_serving(config);
  validate_membership(config);
}

/// One run of `config.groups` master/worker groups over the queries from
/// `first_query` on: group g runs queries first+g, first+g+groups, … and
/// records its phase intervals into `phase_trace`.
RunStats run_groups(const SimConfig& config, const Observability& observe,
                    std::uint32_t first_query, trace::TraceLog* phase_trace) {
  World world(config);
  world.attach_observability(observe);
  const std::uint32_t groups = config.groups;
  const std::uint32_t per_group = config.nprocs / groups;
  std::vector<std::unique_ptr<App>> apps;
  for (std::uint32_t g = 0; g < groups; ++g) {
    const mpi::Rank master = g * per_group;
    std::vector<mpi::Rank> workers;
    for (mpi::Rank rank = master + 1; rank < master + per_group; ++rank)
      workers.push_back(rank);
    // Closed batch: the group's round-robin slice of the queries exists up
    // front (query segmentation across groups).  Serving mode (one group):
    // the list starts empty and grows as arrivals are admitted.
    std::vector<std::uint32_t> queries;
    if (!config.serving.enabled())
      for (std::uint32_t q = first_query + g; q < config.workload.query_count;
           q += groups)
        queries.push_back(q);
    apps.push_back(std::make_unique<App>(world, master, std::move(workers),
                                         std::move(queries), phase_trace));
  }
  for (const auto& app : apps) launch_group(*app);

  world.scheduler.run();
  world.fs.shutdown();
  world.scheduler.run();
  S3A_CHECK_MSG(world.scheduler.live_processes() == 0,
                "simulation did not quiesce");
  return collect_stats(world, apps);
}

}  // namespace

RunStats run_simulation(const SimConfig& config, trace::TraceLog* trace_log) {
  return run_simulation(config, Observability{trace_log, nullptr});
}

RunStats run_simulation(const SimConfig& config, const Observability& observe) {
  validate(config);
  const sim::Time crash_at = config.fault.crash_at;
  if (crash_at == fault::kNever)
    return run_groups(config, observe, 0, observe.trace_log);

  // The configured plan minus the crash itself: replaying it to completion
  // yields both the crash-free baseline and the batch-durability timeline
  // the resume needs.
  SimConfig replay = config;
  replay.fault.crash_at = fault::kNever;
  RunStats stats = run_groups(replay, observe, 0, observe.trace_log);
  ResumeStats resume;
  resume.enabled = true;
  resume.total_seconds = stats.wall_seconds;
  const double crashed_seconds = sim::to_seconds(crash_at);
  if (crashed_seconds < stats.wall_seconds) {
    resume.crashed = true;
    resume.crashed_seconds = crashed_seconds;
    // Resume from the last flushed query boundary: batches whose results
    // were durable before the crash are never recomputed (§2's rationale
    // for flushing after every query).
    std::uint32_t flushed_batches = 0;
    for (const double at : stats.batch_complete_seconds)
      if (at <= crashed_seconds) ++flushed_batches;
    resume.resume_query =
        std::min(config.workload.query_count,
                 flushed_batches * config.queries_per_flush);
    if (resume.resume_query < config.workload.query_count) {
      // The restart is clean: the plan's injected failures already
      // happened in the crashed attempt and are not replayed.
      SimConfig tail = config;
      tail.fault = fault::FaultPlan{};
      stats = run_groups(tail, observe, resume.resume_query, nullptr);
      resume.resumed_seconds = stats.wall_seconds;
    }
    resume.total_seconds = resume.crashed_seconds + resume.resumed_seconds;
  }
  stats.resume = resume;
  return stats;
}

}  // namespace s3asim::core
