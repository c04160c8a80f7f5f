#pragma once

/// \file serving.hpp
/// The open-loop serving layer (online multi-tenant query streams).
///
/// The paper evaluates each I/O strategy under a closed batch: every query
/// exists at t=0 and the metric is makespan.  A production search service
/// sees the opposite regime — queries *arrive* continuously from multiple
/// tenants, and the metrics are end-to-end latency tails and goodput under
/// offered load.  This header holds the pure data structures of that
/// regime: deterministic arrival generation (per-tenant Poisson streams or
/// trace replay), the bounded admission queue with its dispatch policies,
/// and the master-side serving context.  The simulated-time glue (the
/// arrival process and the master's event loop) lives in the runtime.
///
/// Everything here is inert unless `SimConfig::serving.enabled()` —
/// closed-batch runs take none of these paths and stay byte-identical.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/time.hpp"

namespace s3asim::core {

/// One offered query of the open-loop stream.  Arrivals are time-sorted
/// and the vector index *is* the global query id, so the workload model's
/// per-query determinism carries over unchanged.
struct Arrival {
  sim::Time at = 0;
  std::uint32_t tenant = 0;
};

/// One parsed arrival-trace row (`t_seconds, tenant, query_size`).
struct TraceArrival {
  double seconds = 0.0;
  std::uint32_t tenant = 0;
  std::uint64_t query_bytes = 0;
};

/// The tenant set a serving run actually uses: the configured tenants, or
/// a single synthetic "default" tenant when none were declared.
[[nodiscard]] std::vector<TenantConfig> effective_tenants(
    const ServingConfig& serving);

/// Absolute per-tenant Poisson rates in queries/second.  When the
/// aggregate `arrival_rate_hz` is set alongside explicit tenants, the
/// per-tenant `rate_hz` values are treated as relative shares of it.
[[nodiscard]] std::vector<double> tenant_rates(const ServingConfig& serving);

/// The full arrival list of a run, one entry per offered query: trace rows
/// when replaying, else `workload.query_count` arrivals drawn from the
/// per-tenant Poisson streams (exponential gaps from forked RNG streams,
/// k-way merged by time with the tenant index as tie-break).  Depends only
/// on (seed, serving config) — never on strategy or scheduling.
[[nodiscard]] std::vector<Arrival> generate_arrivals(
    const ServingConfig& serving, const WorkloadConfig& workload);

/// Parses a `tenants` config value: '|'-separated
/// `name:rate=R,weight=W,priority=P` entries (every field after the name
/// optional).  Throws std::invalid_argument on malformed input.
[[nodiscard]] std::vector<TenantConfig> parse_tenants(const std::string& spec);

/// Parses arrival-trace text (CSV `t_seconds, tenant, query_size`; blank
/// lines and `#` comments skipped).  Timestamps must be non-decreasing and
/// sizes positive.  Tenant names resolve against `tenants`; when the list
/// starts empty, tenants are registered in first-appearance order,
/// otherwise an unknown name is rejected with the declared set named in
/// the error.  Throws std::invalid_argument with 1-based line info.
[[nodiscard]] std::vector<TraceArrival> parse_arrival_trace(
    const std::string& text, std::vector<TenantConfig>& tenants);

/// Loads `config.serving.arrival_trace` from disk and rewrites the config
/// for replay: `trace_arrivals`, the tenant set, `workload.query_count`,
/// and `workload.query_lengths`.  Called by the config loader; throws
/// std::runtime_error when the file is unreadable.
void apply_arrival_trace(SimConfig& config);

[[nodiscard]] AdmitPolicy parse_admit_policy(const std::string& name);
[[nodiscard]] const char* admit_policy_name(AdmitPolicy policy) noexcept;

/// Rejects serving configurations the runtime cannot honor, with
/// actionable messages (queries_per_flush != 1, fault plans, unloaded
/// traces, degenerate tenant sets).  No-op when serving is disabled.
void validate_serving(const SimConfig& config);

/// An admitted-but-undispatched query.
struct Admitted {
  std::uint32_t query = 0;  ///< global query id
  std::uint32_t tenant = 0;
  sim::Time arrived = 0;
  double virtual_finish = 0.0;  ///< weighted-fair ordering key
  std::uint64_t seq = 0;        ///< admission order (FIFO key / tie-break)
};

/// Bounded admission queue with pluggable dispatch order.  An arrival that
/// finds `depth` queries already waiting is shed (counted per tenant,
/// never dispatched).  Pop order: FIFO = admission order; WeightedFair =
/// start-time fair queuing over tenant weights (virtual finish times);
/// Priority = lowest tenant priority class first, FIFO within a class.
class AdmissionQueue {
 public:
  AdmissionQueue(AdmitPolicy policy, std::uint32_t depth,
                 std::vector<TenantConfig> tenants);

  /// Admits or sheds one arrival; returns true when admitted.
  bool offer(std::uint32_t query, std::uint32_t tenant, sim::Time arrived);

  /// Pops the next query per policy; the queue must not be empty.
  [[nodiscard]] Admitted pop();

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return shed_total_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& shed_by_tenant()
      const noexcept {
    return shed_;
  }

 private:
  AdmitPolicy policy_;
  std::uint32_t depth_;
  std::vector<TenantConfig> tenants_;
  std::deque<Admitted> entries_;  ///< admission order; pop scans per policy
  std::vector<double> tenant_finish_;  ///< WFQ per-tenant virtual finish
  double virtual_time_ = 0.0;          ///< WFQ virtual clock
  std::uint64_t seq_ = 0;
  std::vector<std::uint64_t> shed_;
  std::uint64_t shed_total_ = 0;
};

/// Master-side serving state: the arrival stream, the admission queue,
/// backpressure accounting, and the per-tenant latency record.  Owned by
/// the App; mutated only by the arrival process and the serving master
/// loop (both simulated-time, single group — no synchronization needed).
struct ServingContext {
  explicit ServingContext(const SimConfig& config);

  std::vector<TenantConfig> tenants;  ///< normalized (at least one entry)
  std::vector<Arrival> arrivals;      ///< arrivals[q] = offered query q
  std::uint64_t inflight_watermark = 0;  ///< 0 = backpressure disabled

  AdmissionQueue queue;

  std::uint32_t next_arrival = 0;  ///< cursor of the arrival process
  bool arrivals_open = true;       ///< false once every arrival has fired
  std::uint64_t inflight_bytes = 0;  ///< dispatched-but-unretired output
  std::uint64_t inflight_peak_bytes = 0;
  std::uint32_t dispatched = 0;

  std::vector<std::uint64_t> offered;    ///< per tenant
  std::vector<std::uint64_t> completed;  ///< per tenant
  /// Per-tenant end-to-end latencies (arrival → final retirement), in
  /// completion order.
  std::vector<std::vector<sim::Time>> latencies;

  /// Arrival `query` fires: admit or shed.  Returns true when admitted.
  bool offer(std::uint32_t query);

  /// A query's region was handed to the dispatch path.
  void on_dispatch(std::uint64_t region_bytes);

  /// A query's results were durably retired: record latency, release
  /// backpressure bytes.
  void on_retired(std::uint32_t query, sim::Time now,
                  std::uint64_t region_bytes);

  /// Dispatch of *new* queries pauses while in-flight bytes sit at or
  /// above the watermark (retirements release it).
  [[nodiscard]] bool backpressured() const noexcept {
    return inflight_watermark > 0 && inflight_bytes >= inflight_watermark;
  }

  /// No query will ever be admitted again.
  [[nodiscard]] bool drained() const noexcept {
    return !arrivals_open && queue.empty();
  }

  [[nodiscard]] std::uint64_t offered_total() const noexcept;
  [[nodiscard]] std::uint64_t completed_total() const noexcept;
};

/// Elastic scaling policy (ISSUE 10): holds a demand target and a
/// cooldown, and decides — one step per event-loop wake — whether to
/// summon a standby (+1), drain the most recently joined active worker
/// (−1), or hold (0).  Pure arithmetic over the registry's counters;
/// the master owns the actual transitions.
class AutoscalePolicy {
 public:
  AutoscalePolicy(double target_depth, sim::Time cooldown)
      : target_depth_(target_depth), cooldown_(cooldown) {}

  /// `demand` is the outstanding work the cluster is answerable for:
  /// admission-queue length plus dispatched-but-unretired queries.
  /// Counting the in-service query matters — a lone arrival dispatches
  /// immediately (queue depth stays 0), yet with `target <= 1` the
  /// summoned workers still accelerate it mid-query, because fragments
  /// of the running query redistribute to every joiner.  `joining`
  /// gates both directions (one membership change in flight at a time
  /// keeps the signal honest).  Scale-up needs the stream open and
  /// demand at/over target; scale-down needs zero demand and more than
  /// `min_active` workers.  Each decision re-arms the cooldown.
  [[nodiscard]] int decide(std::size_t demand, std::uint32_t active,
                           std::uint32_t joining, std::uint32_t min_active,
                           bool arrivals_open, sim::Time now) {
    if (joining > 0) return 0;
    if (now < ready_at_) return 0;
    if (arrivals_open && static_cast<double>(demand) >= target_depth_) {
      ready_at_ = now + cooldown_;
      return +1;
    }
    if (demand == 0 && active > min_active) {
      ready_at_ = now + cooldown_;
      return -1;
    }
    return 0;
  }

  [[nodiscard]] double target_depth() const noexcept { return target_depth_; }

 private:
  double target_depth_;
  sim::Time cooldown_;
  sim::Time ready_at_ = 0;
};

}  // namespace s3asim::core
