/// \file master_pumps.cpp
/// The master's ingress processes: receive pumps that funnel worker
/// requests, score returns, and join handshakes into the master's event
/// queues, the serving-mode arrival replayer, and the per-worker failure
/// probes.  The master loop itself lives in master_runtime.cpp.

#include <string>
#include <utility>

#include "core/protocol.hpp"
#include "core/runtime.hpp"

namespace s3asim::core {

/// With faults the message counts are not known up front (reassignment,
/// drops, retirements), so every master pump runs until the master cancels
/// its posted receive at teardown (MPI_Cancel).
///
/// Work requests (kTagRequest) and, under dynamic membership, join
/// handshakes (kTagJoin) share the master's request stream: a join is
/// served with request priority — the sooner the Welcome goes out, the
/// sooner the joiner's staging read starts.
sim::Process master_pump(App& app, mpi::Tag tag) {
  while (true) {
    mpi::Message message =
        co_await app.comm.recv(app.master, mpi::kAnySource, tag);
    if (message.cancelled) break;
    app.master_requests.push_back(std::move(message));
    app.request_wake->push(0);
  }
}

sim::Process master_scores_pump(App& app) {
  while (true) {
    mpi::Message message =
        co_await app.comm.recv(app.master, mpi::kAnySource, kTagScores);
    if (message.cancelled) break;
    app.master_scores.push_back(std::move(message));
    // The event loop blocks on a single wake stream; the closed-batch loop
    // waits on scores separately.
    (app.event_loop() ? app.request_wake : app.scores_wake)->push(0);
  }
}

/// Serving mode: replays the precomputed arrival list in simulated time.
/// Each firing admits (or sheds) the query and wakes the master's event
/// loop with a synthetic arrival notice; one final notice marks the stream
/// closed so the master can re-evaluate its termination condition.
sim::Process serving_arrival_process(App& app) {
  ServingContext& serving = *app.serving;
  const auto total = static_cast<std::uint32_t>(serving.arrivals.size());
  while (serving.next_arrival < total) {
    const Arrival& next = serving.arrivals[serving.next_arrival];
    if (next.at > app.scheduler.now())
      co_await app.scheduler.delay(next.at - app.scheduler.now());
    const std::uint32_t query = serving.next_arrival++;
    (void)serving.offer(query);
    app.master_requests.push_back(
        mpi::Message{.source = app.master, .tag = kTagArrival});
    app.request_wake->push(0);
  }
  serving.arrivals_open = false;
  app.master_requests.push_back(
      mpi::Message{.source = app.master, .tag = kTagArrival});
  app.request_wake->push(0);
}

/// Failure detector for one worker: every token in `armed` covers one timer
/// arming by the master.  Expiry injects a synthetic failure notice into
/// the master's request queue (a local decision — no simulated traffic).
sim::Process worker_probe(App& app, mpi::Rank rank) {
  App::ProbeCtl& probe = *app.probes.at(rank);
  while (true) {
    const auto token = co_await probe.armed->pop();
    if (!token) break;  // closed at teardown
    const bool fired = co_await probe.timer->wait();
    if (!fired) continue;  // sign of life (or re-arm) cancelled the wait
    app.master_requests.push_back(
        mpi::Message{.source = rank, .tag = kTagFailure});
    app.request_wake->push(0);
  }
}

}  // namespace s3asim::core
