/// \file worker_runtime.cpp
/// The worker runtime (Algorithm 2): task processing, database staging,
/// score shipping (with injected message faults), batch tracking, and
/// fail-stop death.  The write path itself — what a "flush" means — is the
/// group strategy's `flush` hook; notification-only strategies (MW, N-N)
/// never flush at all.

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <tuple>
#include <vector>

#include "core/fragment_cache.hpp"
#include "core/protocol.hpp"
#include "core/runtime.hpp"

namespace s3asim::core {

namespace {

struct WorkerState {
  bool done = false;                ///< master said no more tasks
  bool awaiting_response = false;   ///< a work request is outstanding
  std::vector<pfs::Extent> pending; ///< extents accumulated for current flush
  std::uint32_t pending_batch = 0;  ///< batch the pending extents belong to
  std::uint32_t batch_msgs = 0;     ///< per-query messages seen this batch
  std::uint32_t current_batch = 0;  ///< next batch expected (per-query mode)
  std::set<std::uint32_t> merged_queries;  ///< queries with previous results
  /// Score messages initiated so far (drives the deterministic per-send
  /// drop hash; counts dropped sends too).
  std::uint64_t scores_sent = 0;
  /// Lockstep-flush strategies only (§2.3): assignments for upcoming
  /// queries that cannot start until the pending collective I/O completes.
  /// Each entry stores (local query, global query, fragment).  Usually at
  /// most one; the master's recovery reassignment can push a frontier task
  /// unsolicited while one is held, whose follow-up request may defer a
  /// second.
  std::deque<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> deferred;
  /// Database fragments held in memory (when database I/O is modeled).
  FragmentCache cache{0};
};

/// Injected score-message latency: holds the payload back before it enters
/// the network (the post itself then models the transfer as usual).
sim::Process delayed_score_send(App& app, mpi::Rank rank, sim::Time by,
                                std::uint64_t bytes, ScoresMsg scores) {
  co_await app.scheduler.delay(by);
  app.comm.post(rank, app.master, kTagScores, bytes, scores);
}

/// Hands the accumulated extents to the strategy's write path, then joins
/// the query-sync barrier if configured.
sim::Task<void> worker_flush(App& app, mpi::Rank rank, WorkerState& state,
                             std::uint32_t query_tag) {
  std::vector<pfs::Extent> extents = std::move(state.pending);
  state.pending.clear();
  co_await app.strategy->flush(*app.env, rank, std::move(extents), query_tag);

  if (app.config.query_sync) {
    const sim::Time barrier_start = app.scheduler.now();
    co_await app.query_barrier.arrive_and_wait();
    app.env->record_phase(rank, Phase::Sync, barrier_start,
                          app.scheduler.now());
  }
}

}  // namespace

sim::Task<void> App::load_fragment(mpi::Rank rank, std::uint32_t fragment) {
  ++rank_stats[rank].fragment_loads;
  const sim::Time start = scheduler.now();
  if (interleaved_database()) {
    // formatdb-style round-robin layout: the fragment is a strided extent
    // list, served by the configured noncontiguous read method (posix /
    // list / sieve — docs/IO_MODEL.md §3).
    co_await database_file->read_noncontig(rank, fragment_extents(fragment),
                                           config.read_method);
  } else {
    co_await database_file->read_at(
        rank, static_cast<std::uint64_t>(fragment) * fragment_bytes(),
        fragment_bytes());
  }
  env->record_phase(rank, Phase::Io, start, scheduler.now());
}

sim::Process worker_stream_pump(App& app, mpi::Rank rank) {
  while (true) {
    mpi::Message message =
        co_await app.comm.recv(rank, app.master, kTagMasterToWorker);
    if (message.cancelled) break;  // torn down at teardown (dead worker)
    const bool finish =
        message.as<MasterMsg>().kind == MasterMsg::Kind::Finish;
    app.events[app.registry->position(rank)]->push(std::move(message));
    if (finish) break;
  }
  app.events[app.registry->position(rank)]->close();
}

/// Sleeps until the planned kill time and injects a death event into the
/// worker's stream.  The worker acts on it at its next event-loop visit;
/// deaths landing mid-search are handled by the worker itself (partial
/// compute, no score).  Cancelled at teardown if the run ends first.
sim::Process worker_reaper(App& app, mpi::Rank rank, sim::Time kill_at,
                           sim::Timer& timer) {
  timer.arm_at(kill_at);
  if (co_await timer.wait()) {
    sim::Channel<mpi::Message>& events =
        *app.events[app.registry->position(rank)];
    if (!events.closed())
      events.push(mpi::Message{.source = rank, .tag = kTagDeath});
  }
}

sim::Process worker_process(App& app, mpi::Rank rank) {
  WorkerState state;
  state.cache = FragmentCache(app.cache_capacity());
  IoStrategy& strategy = *app.strategy;
  StrategyEnv& env = *app.env;
  const ModelParams& model = app.config.model;
  const sim::Time death_at = app.config.fault.kill_time(rank);

  // Fail-stop: leave every synchronization structure so the survivors can
  // proceed (ULFM-style shrink), then cease to exist.  Called either from
  // the event loop (a reaper's death notice) or mid-search.
  auto die = [&app, &strategy, &env, rank]() {
    app.dead.insert(rank);
    app.death_times[rank] = app.scheduler.now();
    // Removal is a registry transition (first-wins with the master's
    // timeout retirement) — kill/crash and elastic leave share one path.
    (void)app.registry->mark_dead(rank, app.scheduler.now());
    ++app.faults.workers_died;
    app.query_barrier.leave();
    app.comm.barrier_leave();
    strategy.on_worker_death(env, rank);
    app.rank_stats[rank].wall = app.scheduler.now();
    app.rank_stats[rank].phases.finish(app.rank_stats[rank].wall);
  };

  // Steps 6-10 of Algorithm 2 for one (query, fragment) assignment:
  // search, merge, ship scores (and results for MW); the caller then
  // requests the next task.  Returns true if the worker's planned death
  // interrupted the search (the caller must then die() and stop).
  auto process_assignment =
      [&app, &state, &strategy, &env, &model, rank,
       death_at](std::uint32_t local, std::uint32_t query,
                 std::uint32_t fragment) -> sim::Task<bool> {
    // ---- Database staging: stream the fragment in unless cached. -------
    if (app.models_database_io()) {
      if (state.cache.touch(fragment)) {
        ++app.rank_stats[rank].fragment_hits;
      } else {
        co_await app.load_fragment(rank, fragment);
      }
    }

    // ---- Step 6: the search itself. ------------------------------------
    const sim::Time search_time = app.compute_time(query, fragment, rank);
    if (death_at != fault::kNever &&
        app.scheduler.now() + search_time >= death_at) {
      // The planned kill lands inside this search: burn the partial
      // compute, produce nothing.  The master's timeout reclaims the task.
      const sim::Time partial =
          death_at > app.scheduler.now() ? death_at - app.scheduler.now() : 0;
      S3A_PHASE(app, rank, Phase::Compute,
                co_await app.scheduler.delay(partial));
      co_return true;
    }
    S3A_PHASE(app, rank, Phase::Compute,
              co_await app.scheduler.delay(search_time));
    ++app.rank_stats[rank].tasks_processed;

    const std::uint64_t result_bytes =
        app.workload.fragment_result_bytes(query, fragment);
    const std::uint64_t count =
        app.workload.summary(query).fragment_results[fragment];

    // ---- Step 8: merge with previous results for this query. -----------
    if (worker_writes(app.config.strategy)) {
      if (!state.merged_queries.insert(query).second) {
        const auto merge_ns = static_cast<sim::Time>(std::llround(
            static_cast<double>(result_bytes) * model.merge_ns_per_byte));
        S3A_PHASE(app, rank, Phase::MergeResults,
                  co_await app.scheduler.delay(merge_ns));
      }
    }

    // ---- Step 10: send scores (and results if MW) to the master. -------
    {
      const sim::Time start = app.scheduler.now();
      std::uint64_t bytes =
          model.control_message_bytes + count * model.bytes_per_score_entry;
      bytes += strategy.score_payload_bytes(env, query, fragment);
      ScoresMsg scores{query, local, fragment, rank};
      // Injected message faults: a deterministic per-send hash decides
      // drops (same seed + same plan ⇒ same losses); delays hold the
      // message back before it enters the network.
      const double drop_p =
          app.config.fault.drop_probability(rank, app.scheduler.now());
      bool dropped = false;
      if (drop_p > 0.0) {
        util::Xoshiro256 rng(util::hash_combine(
            util::hash_combine(app.config.workload.seed ^ 0x5c0fed70ULL, rank),
            state.scores_sent));
        dropped = rng.uniform() < drop_p;
      }
      ++state.scores_sent;
      if (dropped) {
        ++app.faults.scores_dropped;
      } else if (const sim::Time hold =
                     app.config.fault.score_delay(rank, app.scheduler.now());
                 hold > 0) {
        app.scheduler.spawn(delayed_score_send(app, rank, hold, bytes, scores));
      } else {
        app.comm.post(rank, app.master, kTagScores, bytes, scores);
      }
      // MPI_Isend initiation cost; the transfer itself is asynchronous.
      co_await app.scheduler.delay(model.network.per_message_overhead);
      env.record_phase(rank, Phase::GatherResults, start, app.scheduler.now());
    }

    // ---- Strategy hook: results are computed and the scores are on the
    // wire (N-N appends to its private file here). ------------------------
    co_await strategy.on_results_ready(env, rank, result_bytes);
    co_return false;
  };

  // Set whenever the worker owes the master a work request (step 3): after
  // setup, after each search, and once a join is welcomed.  The event loop
  // sends it before anything else, at the same instant the owing step ends.
  bool request_task = false;

  // ---- Step 1: receive input variables — or, for a worker provisioned
  // outside the cluster (scheduled joiner / elastic standby), wait for the
  // join trigger and open the handshake instead.  The handshake is
  // deadlock-free by construction: after kTagJoin the worker simply enters
  // the event loop, where the master's ordered stream delivers either
  // Welcome (join accepted) or Finish (the run ended first — turned away).
  if (app.registry->initially_standby(rank)) {
    bool join = false;
    if (const auto timer_it = app.join_timers.find(rank);
        timer_it != app.join_timers.end()) {
      // Scheduled joiner: sleep until the configured join time (cancelled
      // at master teardown if the run finishes first).
      timer_it->second->arm_at(app.registry->scheduled_join(rank));
      join = co_await timer_it->second->wait();
      if (join) (void)app.registry->begin_join(rank, app.scheduler.now());
    } else {
      // Elastic standby: block until the autoscaler's summons (begin_join
      // was recorded master-side); nullopt means the run ended unsummoned.
      const auto token = co_await app.activations.at(rank)->pop();
      join = token.has_value();
    }
    if (join) {
      const sim::Time start = app.scheduler.now();
      JoinMsg msg;
      msg.worker = rank;
      if (app.models_database_io())
        msg.staged_fragment = rank % app.config.workload.fragment_count;
      co_await app.comm.send(rank, app.master, kTagJoin,
                             model.control_message_bytes, msg);
      env.record_phase(rank, Phase::Setup, start, app.scheduler.now());
    }
  } else {
    {
      const sim::Time start = app.scheduler.now();
      (void)co_await app.comm.recv(rank, app.master, kTagSetup);
      env.record_phase(rank, Phase::Setup, start, app.scheduler.now());
    }
    request_task = true;
  }

  while (true) {
    if (request_task) {
      request_task = false;
      const sim::Time start = app.scheduler.now();
      co_await app.comm.send(rank, app.master, kTagRequest,
                             model.control_message_bytes);
      state.awaiting_response = true;
      env.record_phase(rank, Phase::DataDistribution, start,
                       app.scheduler.now());
    }
    // Resume an assignment that was blocked on a flush which has since
    // completed (§2.3).  Deferred entries are not necessarily batch-ordered
    // (a reclaimed task for an earlier query can arrive after a fresh one
    // for a later query), so scan rather than pop the front.  Entries only
    // become runnable when the flush advances `current_batch`, so this
    // finds none on any other pass.
    if (const auto ready = std::find_if(
            state.deferred.begin(), state.deferred.end(),
            [&app, &state](const auto& task) {
              return app.batch_of(std::get<0>(task)) <= state.current_batch;
            });
        ready != state.deferred.end()) {
      const auto [local, query, fragment] = *ready;
      state.deferred.erase(ready);
      if (co_await process_assignment(local, query, fragment)) {
        die();
        co_return;
      }
      request_task = true;
      continue;
    }

    const sim::Time wait_start = app.scheduler.now();
    auto event = co_await app.events[app.registry->position(rank)]->pop();
    const sim::Time wait_end = app.scheduler.now();
    if (!event) break;  // stream closed right after Finish
    if (event->tag == kTagDeath) {
      die();
      co_return;
    }
    const auto& msg = event->as<MasterMsg>();

    switch (msg.kind) {
      case MasterMsg::Kind::Assign: {
        env.record_phase(rank, Phase::DataDistribution, wait_start, wait_end);
        state.awaiting_response = false;
        if (lockstep_flush(app.config.strategy) &&
            app.batch_of(msg.local_query) > state.current_batch) {
          // §2.3: the flush blocks the process, so an assignment for an
          // upcoming query cannot start until the pending write completes.
          // Hold it; the event loop resumes it once the flush is done.
          state.deferred.emplace_back(msg.local_query, msg.query, msg.fragment);
        } else {
          if (co_await process_assignment(msg.local_query, msg.query,
                                          msg.fragment)) {
            die();
            co_return;
          }
          request_task = true;
        }
        break;
      }

      case MasterMsg::Kind::Done: {
        env.record_phase(rank, Phase::DataDistribution, wait_start, wait_end);
        state.awaiting_response = false;
        state.done = true;
        break;
      }

      case MasterMsg::Kind::Offsets: {
        // Waiting time while a work request is outstanding — or while an
        // assignment is stalled behind a pending collective (§4: "wasting
        // time, which shows up in the data distribution time") — counts as
        // data distribution; afterwards it is unattributed (→ Other).
        if (state.awaiting_response || !state.deferred.empty())
          env.record_phase(rank, Phase::DataDistribution, wait_start, wait_end);

        if (app.per_query_msgs_to_all()) {
          // One message per query, for everyone: flush on batch boundary.
          state.pending.insert(state.pending.end(), msg.extents.begin(),
                               msg.extents.end());
          ++state.batch_msgs;
          const std::uint32_t batch = app.batch_of(msg.local_query);
          S3A_CHECK_MSG(batch == state.current_batch,
                        "per-query offset messages out of order");
          const std::uint32_t batch_first =
              batch * app.config.queries_per_flush;
          const std::uint32_t batch_size =
              app.batch_last_query(batch) - batch_first + 1;
          if (state.batch_msgs == batch_size) {
            state.batch_msgs = 0;
            ++state.current_batch;
            if (offsets_are_notifications(app.config.strategy)) {
              state.pending.clear();  // notification only; nothing to place
              if (app.config.query_sync) {
                const sim::Time start = app.scheduler.now();
                co_await app.query_barrier.arrive_and_wait();
                env.record_phase(rank, Phase::Sync, start, app.scheduler.now());
              }
            } else {
              co_await worker_flush(app, rank, state, msg.local_query);
            }
            // The event loop now resumes the assignments this flush held.
          }
        } else {
          // Contributor-only mode: flush when the batch boundary is crossed.
          const std::uint32_t batch = app.batch_of(msg.local_query);
          if (!state.pending.empty() && batch != state.pending_batch)
            co_await worker_flush(app, rank, state, msg.local_query);
          state.pending_batch = batch;
          state.pending.insert(state.pending.end(), msg.extents.begin(),
                               msg.extents.end());
          if (app.config.queries_per_flush == 1)
            co_await worker_flush(app, rank, state, msg.local_query);
        }
        break;
      }

      case MasterMsg::Kind::Welcome: {
        env.record_phase(rank, Phase::Setup, wait_start, wait_end);
        // Late-joiner staging: load the announced fragment before taking
        // any task, so the first assignments hit a warm cache instead of
        // stampeding the database servers mid-run.
        if (app.models_database_io()) {
          const std::uint32_t fragment =
              rank % app.config.workload.fragment_count;
          if (!state.cache.touch(fragment))
            co_await app.load_fragment(rank, fragment);
        }
        (void)app.registry->activate(rank, app.scheduler.now());
        // Now a full cluster member: request the first task.
        request_task = true;
        break;
      }

      case MasterMsg::Kind::Finish: {
        if (!state.pending.empty())
          co_await worker_flush(app, rank, state, app.query_count() - 1);
        // Close the client cache before the final barrier: write back any
        // dirty blocks and return the byte-range leases (DESIGN.md §10).
        co_await app.fs.release_client(rank);
        break;
      }
    }
    if (msg.kind == MasterMsg::Kind::Finish) break;
  }

  // ---- Final synchronization (Sync phase). -------------------------------
  {
    const sim::Time start = app.scheduler.now();
    co_await app.comm.barrier();
    env.record_phase(rank, Phase::Sync, start, app.scheduler.now());
  }
  app.rank_stats[rank].wall = app.scheduler.now();
  app.rank_stats[rank].phases.finish(app.rank_stats[rank].wall);
}

}  // namespace s3asim::core
