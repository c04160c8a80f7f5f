/// \file master_runtime.cpp
/// The master runtime (Algorithm 1): task distribution with fragment
/// affinity, score gathering, in-order query completion, batch retirement,
/// failure detection and recovery.  Strategy-specific policy (routing,
/// writing, teardown assembly) is delegated to the group's `IoStrategy`.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/fragment_cache.hpp"
#include "core/protocol.hpp"
#include "core/runtime.hpp"

namespace s3asim::core {

namespace {

/// One assigned-but-unacknowledged (query, fragment) task.
struct Outstanding {
  std::uint32_t local = 0;     ///< group-local query index
  std::uint32_t query = 0;     ///< global query id
  std::uint32_t fragment = 0;
};

/// A master→worker message that carries no task: Done, Welcome or Finish.
MasterMsg control_msg(MasterMsg::Kind kind) {
  MasterMsg msg;
  msg.kind = kind;
  return msg;
}

MasterMsg done_msg() { return control_msg(MasterMsg::Kind::Done); }

MasterMsg assign_msg(const Outstanding& task) {
  MasterMsg msg;
  msg.kind = MasterMsg::Kind::Assign;
  msg.query = task.query;
  msg.local_query = task.local;
  msg.fragment = task.fragment;
  return msg;
}

struct MasterState {
  std::uint32_t next_query = 0;  ///< local index of the query being assigned
  /// Unassigned fragments of `next_query` (affinity scheduling may pick any).
  std::vector<std::uint32_t> pending_fragments;
  std::uint64_t tasks_assigned = 0;
  std::uint64_t tasks_completed = 0;
  std::uint32_t done_sent = 0;
  /// Master's mirror of each worker's fragment cache (affinity scheduling).
  std::vector<FragmentCache> worker_caches;
  FragmentCache& cache_of(const App& app, mpi::Rank worker) {
    return worker_caches[app.registry->position(worker)];
  }

  /// Per local query: fragments completed and (worker, fragment) pairs.
  std::vector<std::uint32_t> fragments_done;
  std::vector<QueryContributors> contributors;
  /// Next local query awaiting in-order region processing.
  std::uint32_t next_inorder = 0;
  /// Local queries completed but blocked behind an earlier incomplete one.
  std::set<std::uint32_t> completed_out_of_order;

  /// Event loop: live workers with an unanswered work request (nothing to
  /// hand out when they asked), answered oldest first once there is.
  std::deque<mpi::Rank> parked;

  // ---- Recovery bookkeeping (recovery_mode only). ------------------------
  /// Tasks each worker has been assigned and not yet returned scores for.
  std::map<mpi::Rank, std::vector<Outstanding>> outstanding;
  /// Workers the failure detector declared dead; they get Done on any
  /// further request and are never assigned again.
  std::set<mpi::Rank> retired;
  /// Tasks reclaimed from retired workers, re-issued FIFO before fresh work.
  std::deque<Outstanding> reassign;
  /// Per local query: fragments whose scores were accepted (first-wins
  /// dedup — a reassigned task may complete twice but only one completion
  /// contributes, keeping the output layout overlap-free).
  std::vector<std::set<std::uint32_t>> done_frags;
};

/// Serving mode: moves the next admitted query (if any, and backpressure
/// permitting) into the dispatch path — assigns it the next local index,
/// extends the group's file layout by its region, and grows the master's
/// per-query bookkeeping.  Shed queries never reach here, so the output
/// file packs exactly the admitted queries in dispatch order.
bool serving_admit(App& app, MasterState& state) {
  ServingContext& serving = *app.serving;
  if (serving.queue.empty() || serving.backpressured()) return false;
  const Admitted next = serving.queue.pop();
  state.next_query = app.query_count();
  app.queries.push_back(next.query);
  app.region_bases.push_back(app.group_output_bytes);
  const std::uint64_t bytes = app.workload.summary(next.query).total_bytes;
  app.group_output_bytes += bytes;
  state.fragments_done.push_back(0);
  state.contributors.emplace_back();
  state.done_frags.emplace_back();
  serving.on_dispatch(bytes);
  return true;
}

}  // namespace

// The ingress pumps (request/scores/join), the serving arrival replayer,
// and the per-worker failure probes live in master_pumps.cpp.

sim::Process master_process(App& app) {
  MasterState state;
  IoStrategy& strategy = *app.strategy;
  StrategyEnv& env = *app.env;
  const std::uint32_t queries = app.query_count();
  const std::uint32_t fragments = app.config.workload.fragment_count;
  const std::uint64_t total_tasks =
      static_cast<std::uint64_t>(queries) * fragments;
  state.fragments_done.assign(queries, 0);
  state.contributors.assign(queries, {});
  state.done_frags.assign(queries, {});
  state.worker_caches.assign(app.nworkers(),
                             FragmentCache(app.cache_capacity()));

  // ---- Setup: create the output file, broadcast input variables. ---------
  {
    const sim::Time start = app.scheduler.now();
    const auto handle = co_await app.fs.create_file(
        app.comm.endpoint_of(app.master),
        "results." + std::to_string(app.master) + ".out");
    app.file = std::make_unique<mpiio::File>(
        app.scheduler, app.network, app.fs, app.comm, handle, app.workers,
        strategy.file_hints(app.config));
    env.file = app.file.get();
    if (app.models_database_io()) {
      const auto db_handle = co_await app.fs.create_file(
          app.comm.endpoint_of(app.master),
          "database." + std::to_string(app.master));
      // The config's hints, not Hints{}: `--sieve-buffer` must reach the
      // database file's sieved reads.
      app.database_file = std::make_unique<mpiio::File>(
          app.scheduler, app.network, app.fs, app.comm, db_handle, app.workers,
          app.config.hints);
    }
    co_await strategy.master_setup(env);
    // Standbys (scheduled joiners, elastic pool) are outside the cluster:
    // their setup rides the Welcome of the join handshake instead.
    for (const mpi::Rank worker : app.workers)
      if (!app.registry->initially_standby(worker))
        co_await app.comm.send(app.master, worker, kTagSetup,
                               app.config.model.setup_message_bytes);
    env.record_phase(app.master, Phase::Setup, start, app.scheduler.now());
  }

  // ---- Task source shared by the closed-batch loop and the event loop. ---
  // Picks the next fresh (query, fragment) for `worker` (with fragment
  // affinity), updating assignment bookkeeping; nullopt when the workload
  // is fully assigned.
  auto fresh_task = [&app, &state, fragments,
                     total_tasks](mpi::Rank worker) -> std::optional<Outstanding> {
    if (app.serving != nullptr) {
      // Open-loop: tasks come from the admission queue, one query at a
      // time; a query's fragments drain before the next one is admitted.
      if (state.pending_fragments.empty() && !serving_admit(app, state))
        return std::nullopt;
    } else if (state.tasks_assigned >= total_tasks) {
      return std::nullopt;
    }
    if (state.pending_fragments.empty()) {
      state.pending_fragments.resize(fragments);
      for (std::uint32_t f = 0; f < fragments; ++f)
        state.pending_fragments[f] = f;
    }
    // mpiBLAST-style fragment affinity: within the current query, prefer a
    // fragment the requesting worker already has in memory.
    std::size_t pick = 0;
    bool affinity_hit = false;
    if (app.config.fragment_affinity && app.models_database_io()) {
      const FragmentCache& cache = state.cache_of(app, worker);
      for (std::size_t i = 0; i < state.pending_fragments.size(); ++i) {
        if (cache.contains(state.pending_fragments[i])) {
          pick = i;
          affinity_hit = true;
          break;
        }
      }
    }
    // Speed-aware dispatch (heterogeneous classes only): longest-
    // processing-time-first — every request takes the costliest pending
    // fragment, except a slow worker (speed below the active mean) at the
    // query's tail (no more pending fragments than active workers), which
    // takes the cheapest so it never anchors the critical path.  Affinity
    // still wins — a warm cache beats a better size match.
    if (!affinity_hit && app.config.membership.speed_aware &&
        !app.config.membership.classes.empty() &&
        state.pending_fragments.size() > 1) {
      const std::uint32_t query = app.queries[state.next_query];
      const bool slow = app.registry->speed_factor(worker) <
                        app.registry->active_mean_speed();
      const bool tail =
          state.pending_fragments.size() <= app.registry->active_count();
      const bool take_largest = !(slow && tail);
      std::uint64_t best = app.workload.fragment_result_bytes(
          query, state.pending_fragments[0]);
      for (std::size_t i = 1; i < state.pending_fragments.size(); ++i) {
        const std::uint64_t cost = app.workload.fragment_result_bytes(
            query, state.pending_fragments[i]);
        if (take_largest ? cost > best : cost < best) {
          best = cost;
          pick = i;
        }
      }
    }
    Outstanding task;
    task.local = state.next_query;
    task.query = app.queries[state.next_query];
    task.fragment = state.pending_fragments[pick];
    state.pending_fragments.erase(state.pending_fragments.begin() +
                                  static_cast<std::ptrdiff_t>(pick));
    if (app.models_database_io())
      (void)state.cache_of(app, worker).touch(task.fragment);
    if (state.pending_fragments.empty()) ++state.next_query;
    ++state.tasks_assigned;
    return task;
  };

  // ---- Failure-detector arming (recovery_mode only). ---------------------
  auto arm_probe = [&app](mpi::Rank worker) {
    App::ProbeCtl& probe = *app.probes.at(worker);
    probe.timer->arm_in(app.config.fault_detection_timeout);
    probe.armed->push(0);
  };

  // Algorithm 1, step 10: process one completed score receive — merge it
  // (for MW including the full result payload), then handle any queries
  // that completed, in query order (steps 14–18).
  auto handle_score = [&app, &state, &strategy, &env, fragments,
                       &arm_probe]() -> sim::Task<void> {
    mpi::Message event = app.master_scores.pop_front();
    S3A_CHECK(event.tag == kTagScores);
    const auto& scores = event.as<ScoresMsg>();
    if (app.recovery_mode) {
      // Sign of life: the worker returned results — clear the matching
      // outstanding entry and re-arm (or disarm) its failure detector.
      auto& owed = state.outstanding[scores.worker];
      const auto it = std::find_if(
          owed.begin(), owed.end(), [&scores](const Outstanding& task) {
            return task.local == scores.local_query &&
                   task.fragment == scores.fragment;
          });
      if (it != owed.end()) owed.erase(it);
      if (!state.retired.contains(scores.worker)) {
        app.probes.at(scores.worker)->timer->cancel();
        if (!owed.empty()) arm_probe(scores.worker);
      }
    }
    {
      const sim::Time merge_start = app.scheduler.now();
      const auto count = static_cast<sim::Time>(
          app.workload.summary(scores.query).fragment_results[scores.fragment]);
      sim::Time merge_time = count * app.config.model.master_merge_per_entry;
      merge_time +=
          strategy.master_merge_extra(env, scores.query, scores.fragment);
      co_await app.scheduler.delay(merge_time);
      env.record_phase(app.master, Phase::GatherResults, merge_start,
                       app.scheduler.now());
    }
    if (app.recovery_mode &&
        !state.done_frags[scores.local_query].insert(scores.fragment).second) {
      // A reassigned task completed twice (the original owner was slow, not
      // dead).  The master already paid the merge; the late copy must not
      // contribute — its extents would overlap the first completion's.
      ++app.faults.duplicate_completions;
      co_return;
    }
    state.contributors[scores.local_query].emplace_back(scores.worker,
                                                        scores.fragment);
    ++state.tasks_completed;
    if (++state.fragments_done[scores.local_query] == fragments)
      state.completed_out_of_order.insert(scores.local_query);

    while (state.completed_out_of_order.contains(state.next_inorder)) {
      const std::uint32_t local = state.next_inorder;
      state.completed_out_of_order.erase(local);
      ++state.next_inorder;

      co_await strategy.route_query_results(env, local,
                                            state.contributors[local]);

      const std::uint32_t batch = app.batch_of(local);
      if (local == app.batch_last_query(batch)) {
        const std::uint32_t first = batch * app.config.queries_per_flush;
        co_await strategy.retire_batch(env, first, local);
        // §3.3: the query-sync barrier is among the *worker* nodes; the
        // master keeps distributing work.
        app.batch_complete_times.push_back(app.scheduler.now());
        if (app.serving != nullptr)
          app.serving->on_retired(
              app.queries[local], app.scheduler.now(),
              app.workload.summary(app.queries[local]).total_bytes);
      }
    }
  };

  if (!app.event_loop()) {
    // ---- Closed-batch loop (Algorithm 1, byte-identical to the
    //      pre-fault-subsystem behavior). ---------------------------------
    while (true) {
      const bool everything_done = state.tasks_completed == total_tasks &&
                                   state.done_sent == app.nworkers() &&
                                   state.next_inorder == queries;
      if (everything_done) break;

      // ---- Step 3: the master *blocks* receiving work requests and only
      // *tests* score receives — requests are answered first, and the score
      // backlog is drained after each reply (steps 8, 10).
      const bool requests_exhausted = state.done_sent == app.nworkers();
      if (!requests_exhausted) {
        const sim::Time wait_start = app.scheduler.now();
        auto token = co_await app.request_wake->pop();
        S3A_CHECK_MSG(token.has_value(), "master request stream closed early");
        env.record_phase(app.master, Phase::DataDistribution, wait_start,
                         app.scheduler.now());

        // ---- Steps 4-9: assign work or notify completion. ----------------
        S3A_CHECK(!app.master_requests.empty());
        mpi::Message event = app.master_requests.pop_front();
        const mpi::Rank worker = event.source;
        const sim::Time send_start = app.scheduler.now();
        const auto task = fresh_task(worker);
        if (!task) ++state.done_sent;
        // Not inside the co_await: there g++ 12 evaluates both arms of a `?:`
        // whose operands are class objects.
        const MasterMsg reply = task ? assign_msg(*task) : done_msg();
        co_await app.comm.send(app.master, worker, kTagMasterToWorker,
                               app.config.model.control_message_bytes, reply);
        env.record_phase(app.master, Phase::DataDistribution, send_start,
                         app.scheduler.now());
        // Step 10: after serving the request, drain the completed receives.
        while (!app.master_scores.empty()) co_await handle_score();
      } else {
        // No more requests will come; block on the remaining score receives.
        const sim::Time wait_start = app.scheduler.now();
        auto token = co_await app.scores_wake->pop();
        S3A_CHECK_MSG(token.has_value(), "master score stream closed early");
        env.record_phase(app.master, Phase::GatherResults, wait_start,
                         app.scheduler.now());
        // The token may be stale if an earlier drain already consumed the
        // message; every queued message is guaranteed a token, so just skip.
        if (!app.master_scores.empty()) co_await handle_score();
      }
    }
  } else {
    // ---- Event loop: serving, fault recovery and scheduled joins. -------
    // Algorithm 1's protocol on one wake stream.  Each wake handles every
    // queued request, join, arrival and failure notice before the scores,
    // and a score yields to any request queued meanwhile.  A request that
    // finds nothing to hand out parks until work appears (an arrival, a
    // retired query releasing backpressure, tasks reclaimed from a retired
    // worker) or Done can go out.  Under recovery, every assignment arms
    // the worker's failure detector, timeouts retire the worker and
    // requeue its outstanding tasks, and late duplicate completions are
    // discarded (handle_score).

    // True once the serving stream can yield no further task.
    auto stream_over = [&app, &state]() {
      return app.serving != nullptr && app.serving->drained() &&
             state.pending_fragments.empty();
    };
    auto finished = [&app, &state, &stream_over, total_tasks, queries]() {
      // Recovery is judged by results, not by Done handshakes: retired
      // workers may never request again.
      if (app.serving == nullptr)
        return state.tasks_completed == total_tasks &&
               state.next_inorder == queries;
      // Serving counts Done handshakes against *participants* (workers
      // that ever reached Active): never-summoned standbys are released by
      // the teardown Finish instead.  Equal to nworkers() when non-elastic.
      return stream_over() && state.tasks_completed == state.tasks_assigned &&
             state.next_inorder == app.query_count() &&
             state.done_sent == app.registry->participant_count();
    };
    auto reply = [&app](mpi::Rank worker, MasterMsg msg) -> sim::Task<void> {
      const sim::Time send_start = app.scheduler.now();
      co_await app.comm.send(app.master, worker, kTagMasterToWorker,
                             app.config.model.control_message_bytes,
                             std::move(msg));
      app.env->record_phase(app.master, Phase::DataDistribution, send_start,
                       app.scheduler.now());
    };
    // Hands `task` to `worker`.  Under recovery the task is owed from now
    // on, and the worker's failure detector is armed (arming cancels any
    // previous deadline).
    auto assign = [&app, &state, &arm_probe](mpi::Rank worker,
                                             const Outstanding& task) {
      if (app.recovery_mode) {
        state.outstanding[worker].push_back(task);
        arm_probe(worker);
      }
      return assign_msg(task);
    };
    // The answer to `worker`'s request, or nullopt to park it: Done for a
    // retired or draining worker; otherwise the next task, reclaimed work
    // first (FIFO), then fresh; otherwise Done once the serving stream is
    // over.
    auto answer = [&app, &state, &fresh_task, &stream_over,
                   &assign](mpi::Rank worker) -> std::optional<MasterMsg> {
      // A worker retired by timeout that turns out to be alive (e.g. its
      // scores were dropped), or a scale-down victim that finished its
      // outstanding task: wave it off.
      if (state.retired.contains(worker)) {
        ++state.done_sent;
        return done_msg();
      }
      if (app.registry->state(worker) == WorkerLifecycle::Draining) {
        ++state.done_sent;
        (void)app.registry->complete_drain(worker, app.scheduler.now());
        return done_msg();
      }
      if (!state.reassign.empty()) {
        const Outstanding task = state.reassign.front();
        state.reassign.pop_front();
        if (app.models_database_io())
          (void)state.cache_of(app, worker).touch(task.fragment);
        return assign(worker, task);
      }
      if (const auto task = fresh_task(worker)) return assign(worker, *task);
      if (stream_over()) {
        ++state.done_sent;
        return done_msg();
      }
      return std::nullopt;
    };
    auto serve_request = [&state, &answer,
                          &reply](mpi::Rank worker) -> sim::Task<void> {
      if (auto msg = answer(worker)) {
        co_await reply(worker, std::move(*msg));
      } else {
        // The request stays unanswered until work appears or the run
        // finishes (Finish releases it).
        state.parked.push_back(worker);
      }
    };
    // Answers parked workers, oldest first, while there is something to
    // answer them with.  Under recovery a worker parks only once fresh work
    // has run out, so this hands out reclaimed tasks and nothing else.
    auto feed_parked = [&state, &answer, &reply]() -> sim::Task<void> {
      while (!state.parked.empty()) {
        auto msg = answer(state.parked.front());
        if (!msg) break;
        const mpi::Rank worker = state.parked.front();
        state.parked.pop_front();
        co_await reply(worker, std::move(*msg));
      }
    };

    auto handle_failure = [&app, &state, &arm_probe, &assign, &reply,
                           &feed_parked](mpi::Rank worker) -> sim::Task<void> {
      if (state.retired.contains(worker)) co_return;
      auto& owed = state.outstanding[worker];
      if (owed.empty()) co_return;  // everything accounted for; stale expiry
      // A score from this worker may already be queued (in-flight when the
      // timer expired): treat it as a sign of life and give it another
      // detection window instead of retiring.
      for (std::size_t i = 0; i < app.master_scores.size(); ++i) {
        if (app.master_scores[i].as<ScoresMsg>().worker == worker) {
          arm_probe(worker);
          co_return;
        }
      }
      // Lockstep-flush strategies (§2.3): a worker whose owed tasks all
      // belong to batches past the flush frontier is defer-blocked behind
      // the pending collective write — it cannot produce a score no matter
      // how healthy it is.  Silence is not evidence of death there; keep
      // polling until its work reaches the frontier.
      if (lockstep_flush(app.config.strategy) &&
          state.next_inorder < app.query_count()) {
        const std::uint32_t frontier = app.batch_of(state.next_inorder);
        const bool frontier_work =
            std::any_of(owed.begin(), owed.end(),
                        [&app, frontier](const Outstanding& task) {
                          return app.batch_of(task.local) <= frontier;
                        });
        if (!frontier_work) {
          arm_probe(worker);
          co_return;
        }
      }
      // Retire the worker and reclaim everything it still owes.  Removal
      // is a registry transition — fail-stop and elastic leave share one
      // path, and the worker-side death dedups first-wins.
      state.retired.insert(worker);
      (void)app.registry->mark_dead(worker, app.scheduler.now());
      ++app.faults.workers_retired;
      if (app.trace_log != nullptr)
        app.trace_log->event(app.master, "Retire", app.scheduler.now());
      app.faults.tasks_reassigned += owed.size();
      for (const Outstanding& task : owed) state.reassign.push_back(task);
      owed.clear();
      S3A_REQUIRE_MSG(state.retired.size() < app.workers.size(),
                      "unrecoverable: every worker of a group failed");
      // If the retiree was parked (scores dropped, then asked for work we
      // did not have), release it so it can reach the final barrier.  This
      // Done bypasses `reply`: it stays out of the master's
      // DataDistribution time.
      const auto parked_it =
          std::find(state.parked.begin(), state.parked.end(), worker);
      if (parked_it != state.parked.end()) {
        state.parked.erase(parked_it);
        co_await app.comm.send(app.master, worker, kTagMasterToWorker,
                               app.config.model.control_message_bytes,
                               done_msg());
      }
      // Feed the reclaimed tasks to survivors that are waiting for work.
      co_await feed_parked();
      // Lockstep-flush strategies: the survivors may all be defer-blocked
      // (no parked requests, and none coming — a deferred worker only
      // requests again once the stuck collective completes).  Push the
      // reclaimed frontier tasks to them unsolicited; they are executable
      // immediately and their scores unstick the batch.  Reclaimed tasks
      // for later batches stay queued for the request path — delivering
      // those unsolicited would just defer at the receiver too.
      if (lockstep_flush(app.config.strategy) && !state.reassign.empty() &&
          state.next_inorder < app.query_count()) {
        const std::uint32_t frontier = app.batch_of(state.next_inorder);
        std::vector<Outstanding> urgent;
        for (auto it = state.reassign.begin(); it != state.reassign.end();) {
          if (app.batch_of(it->local) <= frontier) {
            urgent.push_back(*it);
            it = state.reassign.erase(it);
          } else {
            ++it;
          }
        }
        std::size_t cursor = 0;
        for (const Outstanding& task : urgent) {
          mpi::Rank survivor;  // round-robin over non-retired workers; the
          do {                 // REQUIRE above guarantees one exists
            survivor = app.workers[cursor % app.workers.size()];
            ++cursor;
          } while (state.retired.contains(survivor));
          if (app.models_database_io())
            (void)state.cache_of(app, survivor).touch(task.fragment);
          co_await reply(survivor, assign(survivor, task));
        }
      }
    };

    // Elastic autoscaling: one policy step per wake — summon the
    // lowest-rank standby into the cluster, or drain the most recently
    // joined active worker (releasing it immediately when parked: a
    // parked worker will never request again on its own).
    auto autoscale_step = [&app, &state,
                           &serve_request]() -> sim::Task<void> {
      WorkerRegistry& registry = *app.registry;
      // Demand = queued + dispatched-but-unretired queries, so a lone
      // in-service query can still summon help mid-query (its remaining
      // fragments redistribute to the joiners).
      const std::size_t demand =
          app.serving->queue.size() + (app.query_count() - state.next_inorder);
      const int dir = app.autoscaler->decide(
          demand, registry.active_count(),
          registry.count(WorkerLifecycle::Joining),
          app.config.membership.min_workers, app.serving->arrivals_open,
          app.scheduler.now());
      if (dir > 0) {
        if (const auto standby = registry.pick_standby()) {
          (void)registry.begin_join(*standby, app.scheduler.now());
          app.activations.at(*standby)->push(0);
        }
      } else if (dir < 0) {
        if (const auto victim = registry.pick_drain_candidate()) {
          (void)registry.begin_drain(*victim, app.scheduler.now());
          const auto parked_it =
              std::find(state.parked.begin(), state.parked.end(), *victim);
          if (parked_it != state.parked.end()) {
            state.parked.erase(parked_it);
            co_await serve_request(*victim);  // Done: it is draining
          }
        }
      }
    };

    while (!finished()) {
      const sim::Time wait_start = app.scheduler.now();
      auto token = co_await app.request_wake->pop();
      S3A_CHECK_MSG(token.has_value(), "master wake stream closed early");
      env.record_phase(app.master, Phase::DataDistribution, wait_start,
                       app.scheduler.now());
      while (!app.master_requests.empty()) {
        mpi::Message event = app.master_requests.pop_front();
        if (event.tag == kTagArrival) {
          // An arrival notice carries no reply of its own; feed_parked
          // below reacts to the new (or newly closed) stream state.
        } else if (event.tag == kTagFailure) {
          co_await handle_failure(event.source);
        } else if (event.tag == kTagJoin) {
          // The joiner pre-staged `staged_fragment` before taking work:
          // mirror the touch so affinity scheduling sees the warm cache,
          // then acknowledge on the ordered master→worker stream (Welcome
          // — or, after this loop has exited, the universal Finish turns
          // the joiner away instead).
          const auto& join = event.as<JoinMsg>();
          if (app.models_database_io())
            (void)state.cache_of(app, join.worker).touch(join.staged_fragment);
          co_await reply(join.worker, control_msg(MasterMsg::Kind::Welcome));
        } else {
          S3A_CHECK(event.tag == kTagRequest);
          co_await serve_request(event.source);
        }
      }
      while (!app.master_scores.empty()) {
        co_await handle_score();
        if (!app.master_requests.empty()) break;  // requests take priority
      }
      if (!state.parked.empty()) co_await feed_parked();
      if (app.autoscaler != nullptr) co_await autoscale_step();
    }
  }

  // ---- Teardown: strategy drain/assembly, tell every worker the stream is
  //      over, then sync. --------------------------------------------------
  // Membership teardown first: cancel unfired join timers and close the
  // activation channels so every worker still outside the cluster unblocks
  // and can meet the Finish below at the final barrier.  A kTagJoin still
  // queued (or in flight) is never served past this point — the universal
  // Finish turns the late joiner away instead of a Welcome.
  for (auto& [rank, timer] : app.join_timers) timer->cancel();
  for (auto& [rank, channel] : app.activations) channel->close();
  co_await strategy.master_teardown(env, state.contributors);
  // Close the master's client cache (MW and gap-repair writes go through
  // it) before the workers are told to finish, so every lease conflict is
  // settled ahead of the final barrier.
  co_await app.fs.release_client(app.master);
  for (const mpi::Rank worker : app.workers)
    app.comm.post(app.master, worker, kTagMasterToWorker,
                  app.config.model.control_message_bytes,
                  control_msg(MasterMsg::Kind::Finish));
  {
    const sim::Time barrier_start = app.scheduler.now();
    co_await app.comm.barrier();
    env.record_phase(app.master, Phase::Sync, barrier_start,
                     app.scheduler.now());
  }
  if (app.recovery_mode) {
    // ---- Gap repair: workers that died after being sent offset lists but
    // before writing leave holes in the group file.  Every surviving
    // writer has flushed by now (the barrier above), so whatever is still
    // uncovered is genuinely lost — the master regenerates it from the
    // gathered scores and list-writes it into place.  This runs after the
    // barrier precisely so it cannot overlap a late survivor flush.
    const std::vector<pfs::Extent> holes =
        app.fs.image(app.file->handle()).gaps(app.group_output_bytes);
    if (!holes.empty()) {
      const sim::Time repair_start = app.scheduler.now();
      std::uint64_t bytes = 0;
      for (const pfs::Extent& hole : holes) bytes += hole.length;
      // Reformatting the lost results costs the same per-byte handling as
      // MW's centralized result processing.
      co_await app.scheduler.delay(static_cast<sim::Time>(
          std::llround(static_cast<double>(bytes) *
                       app.config.model.master_result_ns_per_byte)));
      co_await app.file->write_noncontig(app.master, holes,
                                         mpiio::NoncontigMethod::ListIo);
      if (app.config.sync_after_write) co_await app.file->sync(app.master);
      env.record_phase(app.master, Phase::Io, repair_start,
                       app.scheduler.now());
      if (app.trace_log != nullptr)
        app.trace_log->record(app.master, "Recovery", repair_start,
                              app.scheduler.now());
      app.faults.repaired_bytes += bytes;
      app.rank_stats[app.master].bytes_written += bytes;
      ++app.rank_stats[app.master].writes_issued;
    }
    // Disarm the failure detectors and any reapers that never fired, so
    // their queued deadlines are discarded without advancing the clock.
    for (auto& [rank, probe] : app.probes) {
      probe->timer->cancel();
      probe->armed->close();
    }
    for (const auto& timer : app.reaper_timers) timer->cancel();
  }
  // The pumps run open-ended; tear down their posted receives (MPI_Cancel)
  // so the simulation can quiesce.
  app.comm.cancel_posted(app.master);
  app.rank_stats[app.master].wall = app.scheduler.now();
  app.rank_stats[app.master].phases.finish(app.rank_stats[app.master].wall);
}

}  // namespace s3asim::core
