#pragma once

/// \file fault.hpp
/// Fault-injection plans for the simulator.
///
/// The paper motivates per-query output flushing as a fault-tolerance
/// mechanism (§2: a crashed run resumes from the last completed query); a
/// `FaultPlan` makes the failures themselves first-class so the recovery
/// machinery in `src/core` can be exercised deterministically:
///
///  * kill a worker at a simulated time (fail-stop);
///  * slow a worker's compute by a factor from a given time (straggler);
///  * delay or probabilistically drop a worker's score messages;
///  * degrade or stall a PFS server (translated to
///    `pfs::ServerDegradation`);
///  * crash the whole run at a time (driver-level resume-from-flush).
///
/// Plans are value types: the same seed + the same plan replays the exact
/// same event sequence (drop decisions are hashed from seed, rank, and a
/// per-rank send counter — never from global RNG state).
///
/// The CLI spec grammar (`--fault`, also `fault=` in config files) is
/// semicolon-separated clauses:
///
///     kill:worker=3,at=120s
///     slow:worker=2,from=10s,factor=4
///     delay:worker=1,from=0,by=5ms
///     drop:worker=4,from=0,prob=0.25
///     server:id=0,from=30s,factor=8,stall=2s
///     crash:at=200s
///
/// Times accept `s` (default), `ms`, `us`, `ns` suffixes.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace s3asim::fault {

/// "This event never happens."
inline constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();

/// Fail-stop death of a worker rank at an absolute simulated time.
struct WorkerKill {
  std::uint32_t rank = 0;
  sim::Time at = 0;
};

/// From `from` onwards, the worker's searches take `factor`× as long.
struct WorkerSlow {
  std::uint32_t rank = 0;
  sim::Time from = 0;
  double factor = 1.0;
};

/// From `from` onwards, every score message the worker sends is held back
/// an extra `by` before entering the network.
struct ScoreDelay {
  std::uint32_t rank = 0;
  sim::Time from = 0;
  sim::Time by = 0;
};

/// From `from` onwards, each score message the worker sends is lost with
/// probability `probability` (decided by a deterministic per-send hash).
struct ScoreDrop {
  std::uint32_t rank = 0;
  sim::Time from = 0;
  double probability = 0.0;
};

/// PFS server degradation; mirrors pfs::ServerDegradation (the fault module
/// stays independent of the pfs layer — the core driver translates).
struct ServerFault {
  std::uint32_t server = 0;
  sim::Time from = 0;
  double service_factor = 1.0;
  sim::Time stall = 0;
};

struct FaultPlan {
  std::vector<WorkerKill> kills;
  std::vector<WorkerSlow> slowdowns;
  std::vector<ScoreDelay> delays;
  std::vector<ScoreDrop> drops;
  std::vector<ServerFault> servers;
  /// Whole-run crash time for resume-from-flush (kNever = no crash).
  sim::Time crash_at = kNever;

  [[nodiscard]] bool empty() const noexcept {
    return kills.empty() && slowdowns.empty() && delays.empty() &&
           drops.empty() && servers.empty() && crash_at == kNever;
  }

  /// True when any fault touches worker behavior or message flow — the
  /// switch that moves the core's master from its closed-batch loop to its
  /// event loop, with failure detection on.  Pure server degradations and
  /// whole-run crashes do not perturb the master/worker protocol.
  [[nodiscard]] bool perturbs_workers() const noexcept {
    return !kills.empty() || !slowdowns.empty() || !delays.empty() ||
           !drops.empty();
  }

  /// Earliest kill time for `rank` (kNever if it survives).
  [[nodiscard]] sim::Time kill_time(std::uint32_t rank) const noexcept {
    sim::Time earliest = kNever;
    for (const WorkerKill& kill : kills)
      if (kill.rank == rank && kill.at < earliest) earliest = kill.at;
    return earliest;
  }

  /// Product of the slowdown factors active for `rank` at time `now` (>= 1).
  [[nodiscard]] double slow_factor(std::uint32_t rank,
                                   sim::Time now) const noexcept {
    double factor = 1.0;
    for (const WorkerSlow& slow : slowdowns)
      if (slow.rank == rank && now >= slow.from) factor *= slow.factor;
    return factor;
  }

  /// Sum of the score delays active for `rank` at time `now`.
  [[nodiscard]] sim::Time score_delay(std::uint32_t rank,
                                      sim::Time now) const noexcept {
    sim::Time total = 0;
    for (const ScoreDelay& delay : delays)
      if (delay.rank == rank && now >= delay.from) total += delay.by;
    return total;
  }

  /// Highest drop probability active for `rank` at time `now`.
  [[nodiscard]] double drop_probability(std::uint32_t rank,
                                        sim::Time now) const noexcept {
    double probability = 0.0;
    for (const ScoreDrop& drop : drops)
      if (drop.rank == rank && now >= drop.from && drop.probability > probability)
        probability = drop.probability;
    return probability;
  }

  /// One-line human-readable summary ("no faults" when empty).
  [[nodiscard]] std::string describe() const;
};

/// Parses the CLI/config spec grammar documented above.  Empty or
/// whitespace-only specs yield an empty plan.  Throws std::invalid_argument
/// with a pointed message on malformed input.
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view spec);

/// Parses a time literal: a decimal number with an optional `s` (default),
/// `ms`, `us`, or `ns` suffix.  Throws std::invalid_argument.
[[nodiscard]] sim::Time parse_time(std::string_view text);

}  // namespace s3asim::fault
