#pragma once

/// \file membership.hpp
/// First-class cluster membership (ROADMAP item 5).
///
/// Through PR 9 the worker set was fixed at `World` construction: every
/// rank existed from t=0, only the fault subsystem could remove one, and
/// the master treated all workers as equally fast (modulo the flat
/// `compute_speed_jitter`).  The `WorkerRegistry` makes membership a
/// first-class runtime object instead:
///
///  * a per-worker lifecycle `standby → joining → active → draining →
///    departed` (with `dead` reachable from any live state — fail-stop
///    kills and elastic leave share one transition path, first-wins);
///  * a membership **epoch** counter bumped by every accepted transition,
///    so any observer can cheaply detect "the cluster changed";
///  * per-worker capability records with named **speed classes**
///    (`worker_classes = standard:speed=1,count=3|accel:speed=4,count=1`)
///    replacing the flat jitter-only heterogeneity model — the jitter
///    still composes multiplicatively on top, preserving byte-identity
///    when no classes are configured;
///  * scheduled mid-run joins (`joins = worker=4,at=2s`) for closed-batch
///    runs — the inverse of a kill fault, and composable with one — and
///    elastic standby pools for serving mode, scaled by the
///    `AutoscalePolicy` (serving.hpp) against the admission queue.
///
/// The registry is pure bookkeeping: it never touches the scheduler or
/// the network.  The runtimes drive it (worker_runtime.cpp initiates the
/// join handshake, master_runtime.cpp activates/drains/retires) and the
/// obs bridge reads it out into `RunStats::membership`.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "mpi/comm.hpp"
#include "sim/time.hpp"
#include "util/require.hpp"

namespace s3asim::core {

/// "This worker has no scheduled join."
inline constexpr sim::Time kNoScheduledJoin =
    std::numeric_limits<sim::Time>::max();

/// Lifecycle of one worker (DESIGN.md §12 has the transition diagram).
enum class WorkerLifecycle : std::uint8_t {
  Standby,   ///< provisioned but not part of the cluster yet
  Joining,   ///< join handshake in flight (kTagJoin sent, staging)
  Active,    ///< dispatchable: may be assigned tasks
  Draining,  ///< scale-down pending: finishes current work, no new tasks
  Departed,  ///< drained cleanly (elastic leave)
  Dead,      ///< fail-stopped (kill fault or detector retirement)
};

[[nodiscard]] const char* worker_lifecycle_name(WorkerLifecycle state) noexcept;

/// Per-worker capability + lifecycle record.
struct WorkerRecord {
  mpi::Rank rank = 0;
  WorkerLifecycle state = WorkerLifecycle::Active;
  std::uint32_t class_index = 0;  ///< into the configured class list (0 if none)
  /// Class speed × the deterministic per-rank jitter factor.  The
  /// effective search speed is `config.compute_speed * speed_factor`.
  double speed_factor = 1.0;
  sim::Time scheduled_join = kNoScheduledJoin;  ///< closed-batch join time
  sim::Time join_started = 0;    ///< begin_join() instant
  sim::Time join_completed = 0;  ///< activate() instant
  sim::Time left_at = 0;         ///< departed/dead instant (participants only)
  bool participant = false;      ///< ever reached Active
  bool initially_standby = false;  ///< started outside the cluster
};

/// The cluster-membership ledger of one master/worker group.  All
/// transitions are first-wins: a call that does not apply to the worker's
/// current state returns false and changes nothing (so e.g. a worker-side
/// death and the master's later timeout retirement dedup naturally).
class WorkerRegistry {
 public:
  /// `workers` is the group's full potential worker set; `seed`/`jitter`
  /// reproduce the pre-registry per-rank heterogeneity factor exactly.
  WorkerRegistry(const MembershipConfig& membership,
                 const std::vector<mpi::Rank>& workers, std::uint64_t seed,
                 double jitter);

  // ---- Lookups (O(1): a rank-indexed table of record positions). ---------
  [[nodiscard]] const WorkerRecord& record(mpi::Rank rank) const {
    S3A_REQUIRE_MSG(rank < index_.size() && index_[rank] < records_.size(),
                    "worker registry: rank " + std::to_string(rank) +
                        " is not a worker of this group");
    return records_[index_[rank]];
  }
  /// `rank`'s index in the worker list and so in per-worker tables.
  [[nodiscard]] std::size_t position(mpi::Rank rank) const {
    return static_cast<std::size_t>(&record(rank) - records_.data());
  }
  [[nodiscard]] WorkerLifecycle state(mpi::Rank rank) const {
    return record(rank).state;
  }
  [[nodiscard]] double speed_factor(mpi::Rank rank) const {
    return record(rank).speed_factor;
  }
  /// Only Active workers may be assigned tasks.
  [[nodiscard]] bool is_dispatchable(mpi::Rank rank) const {
    return state(rank) == WorkerLifecycle::Active;
  }
  /// True when the worker starts outside the cluster (scheduled joiner or
  /// elastic standby) — it must not receive the initial setup broadcast.
  [[nodiscard]] bool initially_standby(mpi::Rank rank) const {
    return record(rank).initially_standby;
  }
  [[nodiscard]] sim::Time scheduled_join(mpi::Rank rank) const {
    return record(rank).scheduled_join;
  }
  [[nodiscard]] const std::vector<WorkerRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<SpeedClass>& classes() const noexcept {
    return classes_;
  }
  /// Mean speed factor over currently Active workers (1.0 when none) —
  /// the speed-aware dispatcher's fast/slow pivot.
  [[nodiscard]] double active_mean_speed() const;

  // ---- Transitions (each accepted one bumps the epoch). -------------------
  bool begin_join(mpi::Rank rank, sim::Time now);     ///< Standby → Joining
  bool activate(mpi::Rank rank, sim::Time now);       ///< Joining → Active
  bool begin_drain(mpi::Rank rank, sim::Time now);    ///< Active → Draining
  bool complete_drain(mpi::Rank rank, sim::Time now); ///< Draining → Departed
  bool mark_dead(mpi::Rank rank, sim::Time now);  ///< any live state → Dead

  // ---- Aggregates. --------------------------------------------------------
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint32_t count(WorkerLifecycle state) const;
  [[nodiscard]] std::uint32_t active_count() const {
    return count(WorkerLifecycle::Active);
  }
  /// Workers that ever reached Active (initial members + completed joins).
  [[nodiscard]] std::uint32_t participant_count() const noexcept {
    return participants_;
  }
  [[nodiscard]] std::uint32_t peak_active() const noexcept {
    return peak_active_;
  }
  [[nodiscard]] std::uint32_t joins_completed() const noexcept {
    return joins_completed_;
  }
  [[nodiscard]] std::uint32_t drains_completed() const noexcept {
    return drains_completed_;
  }
  /// begin_join → activate latencies (seconds), one per completed mid-run
  /// join, in completion order.
  [[nodiscard]] const std::vector<double>& join_latencies() const noexcept {
    return join_latencies_;
  }
  /// Lowest-rank Standby worker, or nullopt when the pool is exhausted.
  [[nodiscard]] std::optional<mpi::Rank> pick_standby() const;
  /// Scale-down victim: the most recently activated Active worker
  /// (ties broken toward the higher rank); nullopt when none is Active.
  [[nodiscard]] std::optional<mpi::Rank> pick_drain_candidate() const;
  /// Σ over participants of their active span (join → leave, clipped to
  /// `end` for workers still in the cluster), in seconds — the
  /// provisioning cost axis of Ablation O.
  [[nodiscard]] double worker_seconds(sim::Time end) const;

 private:
  [[nodiscard]] WorkerRecord& mutable_record(mpi::Rank rank);

  std::vector<WorkerRecord> records_;
  /// rank -> index into `records_`; `records_.size()` marks a non-worker.
  std::vector<std::size_t> index_;
  std::vector<SpeedClass> classes_;
  std::uint64_t epoch_ = 0;
  std::uint32_t participants_ = 0;
  std::uint32_t active_ = 0;
  std::uint32_t peak_active_ = 0;
  std::uint32_t joins_completed_ = 0;
  std::uint32_t drains_completed_ = 0;
  std::vector<double> join_latencies_;
};

/// Parses the `worker_classes` spec: '|'-separated `name:key=val,...`
/// clauses with fields `speed` (relative multiplier, > 0) and `count`
/// (pattern slots per cycle, >= 1).  Classes repeat cyclically over the
/// worker ranks, e.g. `standard:speed=1,count=3|accel:speed=4,count=1`
/// makes every 4th worker an accelerator.  Throws std::invalid_argument
/// with a pointed message on malformed input.
[[nodiscard]] std::vector<SpeedClass> parse_worker_classes(
    std::string_view spec);

/// Parses the `joins` spec: '|'-separated `worker=R,at=T[,class=NAME]`
/// clauses (T accepts the fault-plan time grammar: `s` default, `ms`,
/// `us`, `ns`).  `class` overrides the worker's positional speed class.
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] std::vector<JoinSpec> parse_joins(std::string_view spec);

/// Rejects membership configurations that cannot run: joins naming
/// non-worker ranks or unknown speed classes, elastic mode without
/// serving, membership changes under strategies whose collectives assume
/// a fixed cohort (WW-Coll, WW-CollList, WW-Aggr), query_sync with a
/// changing barrier cohort, and kill faults that fire before their
/// target's scheduled join.  Called by run_simulation before the World is
/// built, next to validate_fault_plan.
void validate_membership(const SimConfig& config);

}  // namespace s3asim::core
