#include "sim/lp_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "util/require.hpp"

namespace s3asim::sim {

namespace {

constexpr Time kTimeMax = std::numeric_limits<Time>::max();

}  // namespace

LpScheduler::LpScheduler(Options options) : options_(options) {
  S3A_REQUIRE_MSG(
      options_.lookahead > 0,
      "the parallel engine needs a positive lookahead: window width is the "
      "guaranteed minimum cross-LP delivery latency, and a zero-latency "
      "edge admits same-instant cross-LP interactions no window can order "
      "safely — raise the network latency (net::LinkParams::latency) or "
      "use --engine=serial");
  if (options_.threads == 0) options_.threads = 1;
}

LpScheduler::~LpScheduler() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    round_start_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }
}

Lp& LpScheduler::add_lp() {
  S3A_CHECK_MSG(!in_window_, "cannot add LPs while a window is executing");
  lps_.push_back(std::make_unique<Lp>(static_cast<Lp::Id>(lps_.size())));
  return *lps_.back();
}

Lp& LpScheduler::adopt_lp(Scheduler& scheduler) {
  S3A_CHECK_MSG(!in_window_, "cannot add LPs while a window is executing");
  lps_.push_back(
      std::make_unique<Lp>(static_cast<Lp::Id>(lps_.size()), scheduler));
  return *lps_.back();
}

void LpScheduler::post(Lp& src, Lp::Id dst, Time at,
                       std::function<void(Scheduler&)> apply) {
  S3A_REQUIRE_MSG(dst < lps_.size(), "post to unknown LP");
  if (in_window_ && at < window_end_) {
    S3A_REQUIRE_MSG(
        false,
        "cross-LP message violates the lookahead: delivery at t=" +
            std::to_string(at) + " ns but the current window ends at t=" +
            std::to_string(window_end_) + " ns (lookahead " +
            std::to_string(options_.lookahead) +
            " ns) — every cross-LP interaction must pay at least the "
            "network lookahead; model zero-offset interactions inside one "
            "LP or run --engine=serial");
  }
  lps_[dst]->mailbox().push(
      Lp::Post{at, src.id(), src.next_post_seq(), std::move(apply)});
}

void LpScheduler::deliver_staged() {
  // Applying a post may itself post (delivery handlers forwarding work),
  // possibly to an LP already drained this pass — sweep until globally
  // empty.  The sweep order (LP id, then the sorted merge key) is fixed,
  // so delivery stays deterministic.
  bool again = true;
  while (again) {
    again = false;
    for (auto& lp : lps_) {
      if (lp->mailbox().empty()) continue;
      staging_.clear();
      lp->mailbox().drain(staging_);
      again = true;
      std::sort(staging_.begin(), staging_.end(),
                [](const Lp::Post& a, const Lp::Post& b) {
                  if (a.at != b.at) return a.at < b.at;
                  if (a.src_lp != b.src_lp) return a.src_lp < b.src_lp;
                  return a.src_seq < b.src_seq;
                });
      FramePool* pool = lp->pinned() ? nullptr : &lp->frame_pool();
      for (Lp::Post& post : staging_) {
        if (pool != nullptr) {
          FramePool::Scope scope(*pool);
          post.apply(lp->scheduler());
        } else {
          post.apply(lp->scheduler());
        }
        ++cross_posts_;
      }
    }
  }
}

std::size_t LpScheduler::run() {
  if (options_.threads > 1 && workers_.empty()) start_workers();
  if (errors_.size() < lps_.size()) errors_.resize(lps_.size());
  std::size_t total = 0;
  for (;;) {
    deliver_staged();
    Time gmin = kTimeMax;
    for (auto& lp : lps_)
      if (lp->scheduler().has_pending())
        gmin = std::min(gmin, lp->scheduler().next_event_time());
    if (gmin == kTimeMax) break;  // quiescent: no events, mailboxes drained
    window_end_ = gmin > kTimeMax - options_.lookahead
                      ? kTimeMax
                      : gmin + options_.lookahead;
    active_.clear();
    for (auto& lp : lps_) {
      if (!lp->scheduler().has_pending() ||
          lp->scheduler().next_event_time() >= window_end_)
        continue;
      active_.push_back(lp.get());
      if (met_lp_queue_depth_ != nullptr)
        met_lp_queue_depth_->observe(
            static_cast<double>(lp->scheduler().queue_depth()));
    }
    ++windows_;
    activations_ += active_.size();
    total += execute_window();
    publish_window_metrics(active_.size());
    for (Lp* lp : active_) {
      if (!errors_[lp->id()]) continue;
      auto error = std::exchange(errors_[lp->id()], nullptr);
      std::rethrow_exception(error);
    }
  }
  return total;
}

std::size_t LpScheduler::execute_window() {
  window_resumed_.store(0, std::memory_order_relaxed);
  const unsigned coordinator = options_.threads - 1;
  if (workers_.empty()) {
    in_window_ = true;
    for (Lp* lp : active_) run_lp(*lp, coordinator);
    in_window_ = false;
    return window_resumed_.load(std::memory_order_relaxed);
  }

  stealable_.clear();
  pinned_.clear();
  for (Lp* lp : active_) (lp->pinned() ? pinned_ : stealable_).push_back(lp);

  // Sparse-window fast path: with at most one stealable LP there is no
  // parallelism to extract, so skip the round handshake (workers stay
  // asleep) and run the window inline.  This is the common shape during
  // I/O phases — a handful of staggered server events per window — and
  // the *only* shape for a single adopted LP (the full model under
  // --engine=parallel), where it keeps windows near-free.
  if (stealable_.size() <= 1) {
    in_window_ = true;
    for (Lp* lp : pinned_) run_lp(*lp, coordinator);
    for (Lp* lp : stealable_) run_lp(*lp, coordinator);
    in_window_ = false;
    return window_resumed_.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    next_.store(0, std::memory_order_relaxed);
    in_window_ = true;
    round_open_ = true;
    ++round_;
  }
  round_start_.notify_all();

  // The coordinator is a full pool member: pinned LPs first (only it may
  // run them), then it steals from the shared cursor like everyone else.
  for (Lp* lp : pinned_) run_lp(*lp, coordinator);
  claim_loop(coordinator);

  // Every LP is claimed once the coordinator's own claim loop returns, so
  // the round is over when every worker that joined it has left its claim
  // loop.  Closing the round under the mutex keeps late wakers out: no
  // worker can touch the claim cursor or `stealable_` while the next
  // window is planned.
  const auto wait_begin = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    round_done_.wait(lock, [this] { return claiming_ == 0; });
    round_open_ = false;
    in_window_ = false;
  }
  if (met_stall_seconds_ != nullptr) {
    const auto waited = std::chrono::steady_clock::now() - wait_begin;
    met_stall_seconds_->observe(
        std::chrono::duration<double>(waited).count());
  }
  return window_resumed_.load(std::memory_order_relaxed);
}

void LpScheduler::claim_loop(unsigned thread_index) {
  for (;;) {
    const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= stealable_.size()) return;
    run_lp(*stealable_[index], thread_index);
  }
}

void LpScheduler::run_lp(Lp& lp, unsigned thread_index) {
  if (lp.id() % options_.threads != thread_index)
    steals_.fetch_add(1, std::memory_order_relaxed);
  std::size_t resumed = 0;
  try {
    if (lp.pinned()) {
      // An adopted scheduler's frames live in the adopting thread's
      // default pool (they predate the engine) — keep using it, which is
      // safe because pinned LPs only ever run on the coordinator.
      resumed = lp.scheduler().run_window(window_end_);
    } else {
      FramePool::Scope scope(lp.frame_pool());
      resumed = lp.scheduler().run_window(window_end_);
    }
  } catch (...) {
    errors_[lp.id()] = std::current_exception();
  }
  window_resumed_.fetch_add(resumed, std::memory_order_relaxed);
}

void LpScheduler::worker_main(unsigned thread_index) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      round_start_.wait(
          lock, [&] { return stop_ || (round_open_ && round_ != seen); });
      if (stop_) return;
      seen = round_;
      ++claiming_;
    }
    claim_loop(thread_index);
    std::lock_guard<std::mutex> lock(mutex_);
    if (--claiming_ == 0) round_done_.notify_one();
  }
}

void LpScheduler::start_workers() {
  workers_.reserve(options_.threads - 1);
  for (unsigned i = 0; i + 1 < options_.threads; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

void LpScheduler::attach_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    met_windows_ = met_activations_ = met_cross_posts_ = met_steals_ = nullptr;
    met_window_lps_ = met_lp_queue_depth_ = met_stall_seconds_ = nullptr;
    met_lps_ = nullptr;
    return;
  }
  met_windows_ = &registry->counter("host.engine.windows");
  met_activations_ = &registry->counter("host.engine.lp_activations");
  met_cross_posts_ = &registry->counter("host.engine.cross_lp_messages");
  met_window_lps_ = &registry->histogram("host.engine.window_lps");
  met_lp_queue_depth_ = &registry->histogram("host.engine.lp_queue_depth");
  met_lps_ = &registry->gauge("host.engine.lps");
  // Host-clock / thread-placement metrics: nondeterministic by nature, so
  // they live under host.* (stripped by obs_validate --simulated-only).
  met_steals_ = &registry->counter("host.engine.steals");
  met_stall_seconds_ = &registry->histogram("host.engine.window_stall_seconds");
  published_steals_ = steals_.load(std::memory_order_relaxed);
  published_cross_posts_ = cross_posts_;
}

void LpScheduler::publish_window_metrics(std::size_t active_count) {
  if (met_windows_ == nullptr) return;
  met_windows_->add(1);
  met_activations_->add(active_count);
  met_window_lps_->observe(static_cast<double>(active_count));
  met_lps_->set(static_cast<double>(lps_.size()));
  met_cross_posts_->add(cross_posts_ - published_cross_posts_);
  published_cross_posts_ = cross_posts_;
  const std::uint64_t stolen = steals_.load(std::memory_order_relaxed);
  met_steals_->add(stolen - published_steals_);
  published_steals_ = stolen;
}

}  // namespace s3asim::sim
