#pragma once

/// \file lp_scheduler.hpp
/// Conservative parallel discrete-event executor (the `--engine=parallel`
/// backend).
///
/// The simulation is partitioned into logical partitions (LPs, lp.hpp),
/// each wrapping an unchanged serial `Scheduler`.  Execution proceeds in
/// bounded *time windows* of width `lookahead` — the guaranteed minimum
/// cross-LP latency, advertised by the network model (`net::Network::
/// lookahead()`, ≥ 7.5 µs for the paper's Myrinet link):
///
///   1. deliver: every staged cross-LP message is drained from the
///      destination's mailbox, sorted by (time, source LP, source
///      sequence), and applied — a deterministic merge, independent of
///      which threads produced the messages;
///   2. plan: gmin = the earliest pending event across all LPs; the window
///      is [gmin, gmin + lookahead) and every LP with an event inside it
///      is *active*;
///   3. execute: active LPs run `Scheduler::run_window(gmin + lookahead)`
///      concurrently on the worker pool (each LP single-threaded, claimed
///      via an atomic cursor — idle threads steal the next unclaimed LP);
///      messages they emit for other LPs land in mailboxes, and the
///      lookahead guarantees their delivery times lie at or beyond the
///      window end, so no LP can receive an event it should already have
///      executed — the classic null-message-free conservative argument;
///   4. barrier, then repeat until every queue and mailbox is empty.
///
/// Determinism contract: results are bit-identical for any thread count.
/// Within a window each LP retires its events in serial (time, seq) order;
/// across LPs the only interaction is the mailbox, and its merge order is
/// the explicit (time, lp, seq) key — nothing observable depends on thread
/// scheduling.  A single-LP simulation executed through windows retires
/// exactly the serial event sequence, so `--engine=parallel` is
/// bit-identical to `--engine=serial` by construction there too.
///
/// Zero lookahead is rejected up front: with no minimum cross-LP latency
/// there is no window width under which concurrent execution is safe, and
/// the right engine is the serial one.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/lp.hpp"
#include "sim/time.hpp"

namespace s3asim::obs {
class Registry;
class Counter;
class Histogram;
class Gauge;
}  // namespace s3asim::obs

namespace s3asim::sim {

class LpScheduler {
 public:
  struct Options {
    /// Window width = guaranteed minimum cross-LP delivery latency.
    /// Must be > 0 (rejected otherwise, with an actionable error).
    Time lookahead = 0;
    /// Total execution threads (coordinator included); <= 1 runs every
    /// window inline on the calling thread through the same code path.
    unsigned threads = 1;
  };

  explicit LpScheduler(Options options);
  ~LpScheduler();
  LpScheduler(const LpScheduler&) = delete;
  LpScheduler& operator=(const LpScheduler&) = delete;

  /// Creates an engine-owned LP (its own scheduler, pool, mailbox).
  Lp& add_lp();

  /// Wraps an externally owned scheduler as an LP.  Pinned to the
  /// coordinating thread (see lp.hpp); everything else — windows, mailbox
  /// delivery, metrics — behaves identically.
  Lp& adopt_lp(Scheduler& scheduler);

  [[nodiscard]] std::size_t lp_count() const noexcept { return lps_.size(); }
  [[nodiscard]] Lp& lp(Lp::Id id) { return *lps_.at(id); }
  [[nodiscard]] Time lookahead() const noexcept { return options_.lookahead; }
  [[nodiscard]] unsigned threads() const noexcept { return options_.threads; }

  /// Stages a message from `src` (the LP currently executing) for `dst`,
  /// delivered at absolute time `at`.  While a window is executing, `at`
  /// must lie at or beyond the window end — i.e. the message must pay at
  /// least the lookahead; a violation throws with an actionable error.
  /// `apply` runs on the destination LP at the barrier (single-threaded,
  /// destination frame pool installed).
  void post(Lp& src, Lp::Id dst, Time at,
            std::function<void(Scheduler&)> apply);

  /// Runs every LP to global quiescence (all queues and mailboxes empty).
  /// Returns the total number of resumptions across all LPs.  Rethrows
  /// the first process error, picking the lowest-id failing LP when
  /// several fail in one window (deterministic across thread counts).
  std::size_t run();

  /// Publishes engine metrics into `registry` (nullptr detaches), all
  /// under "host.engine.*": they describe the executor, not the simulated
  /// system, and exist only when this engine runs — keeping them out of
  /// `sim.*` is what lets `obs_validate --simulated-only` output compare
  /// byte-equal across engines.  Deterministic counts (windows,
  /// activations, cross-LP posts) stay reachable through the accessors
  /// below.  See docs/OBSERVABILITY.md.
  void attach_metrics(obs::Registry* registry);

  // Introspection (tests and benches).
  [[nodiscard]] std::uint64_t windows_executed() const noexcept {
    return windows_;
  }
  [[nodiscard]] std::uint64_t lp_activations() const noexcept {
    return activations_;
  }
  [[nodiscard]] std::uint64_t cross_posts() const noexcept {
    return cross_posts_;
  }
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  void worker_main(unsigned thread_index);
  /// Claims unexecuted active LPs until the window's cursor runs out.
  void claim_loop(unsigned thread_index);
  /// One LP's slice of the current window (any thread).
  void run_lp(Lp& lp, unsigned thread_index);
  /// Drains and applies every LP's staged posts in merge-key order.
  void deliver_staged();
  /// Runs one planned window to its barrier; returns resumptions.
  std::size_t execute_window();
  void start_workers();
  void publish_window_metrics(std::size_t active_count);

  Options options_;
  std::vector<std::unique_ptr<Lp>> lps_;

  // Window state (written by the coordinator between windows; read by
  // workers during one — the round handshake provides the ordering).
  Time window_end_ = 0;
  bool in_window_ = false;
  std::vector<Lp*> active_;     ///< this window's runnable LPs, id order
  std::vector<Lp*> stealable_;  ///< active_ minus pinned LPs
  std::vector<Lp*> pinned_;     ///< active_ LPs only the coordinator runs
  std::vector<Lp::Post> staging_;  ///< barrier-time drain scratch
  std::vector<std::exception_ptr> errors_;  ///< per-LP, window-scoped

  // Worker-pool handshake.
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable round_start_;
  std::condition_variable round_done_;
  std::uint64_t round_ = 0;
  bool round_open_ = false;   ///< workers may join the current round
  std::size_t claiming_ = 0;  ///< workers inside the round's claim loop
  bool stop_ = false;
  std::atomic<std::size_t> next_{0};  ///< claim cursor into stealable_
  std::atomic<std::size_t> window_resumed_{0};

  // Accounting.
  std::uint64_t windows_ = 0;      ///< deterministic
  std::uint64_t activations_ = 0;  ///< deterministic
  std::uint64_t cross_posts_ = 0;  ///< deterministic
  std::atomic<std::uint64_t> steals_{0};  ///< host-dependent

  // Metrics (resolved once by attach_metrics; coordinator-only access).
  obs::Counter* met_windows_ = nullptr;
  obs::Counter* met_activations_ = nullptr;
  obs::Counter* met_cross_posts_ = nullptr;
  obs::Histogram* met_window_lps_ = nullptr;
  obs::Histogram* met_lp_queue_depth_ = nullptr;
  obs::Gauge* met_lps_ = nullptr;
  obs::Counter* met_steals_ = nullptr;
  obs::Histogram* met_stall_seconds_ = nullptr;
  std::uint64_t published_steals_ = 0;
  std::uint64_t published_cross_posts_ = 0;
};

}  // namespace s3asim::sim
