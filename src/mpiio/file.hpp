#pragma once

/// \file file.hpp
/// MPI-IO style file abstraction over the simulated PVFS2.
///
/// Independent operations:
///  * `write_at`            — contiguous write (MPI_File_write_at)
///  * `write_noncontig`     — noncontiguous write of an offset-length list
///                            the strategy built flat, executed per the
///                            chosen method (POSIX per-extent, PVFS2-native
///                            list I/O, or ROMIO data sieving)
///  * `read_at` / `read_noncontig` — the read twins (database streaming)
///  * `sync`                — MPI_File_sync (flush at every server)
///
/// Collective operation:
///  * `write_at_all`        — every participant calls it with its own
///                            extents; executed either as ROMIO-style
///                            two-phase I/O or as list-I/O-with-barriers
///                            (the paper's proposed alternative), per hints.
///
/// The inherent synchronization of collective I/O — the effect the paper
/// sets out to expose — is *structural* here: a participant cannot leave
/// `write_at_all` before every other participant has arrived and the
/// aggregators have drained their writes.  `collective_wait(rank)`
/// reports the accumulated stall.
///
/// Two-phase file domains are equal `chunk`-sized ranges from the lowest
/// offset written, so an extent's first domain is one division away: the
/// per-aggregator byte sums and write lists cost one pass over the extents
/// plus the domains they actually touch.  Each exchange send is a pooled
/// frame-less step (a wire transfer, then one mark on the round's latch),
/// not a coroutine (DESIGN.md §7 "Frame-less wire operations").

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "mpi/comm.hpp"
#include "mpiio/hints.hpp"
#include "pfs/pfs.hpp"
#include "sim/frame_pool.hpp"
#include "sim/gate.hpp"
#include "sim/step.hpp"
#include "sim/task.hpp"
#include "sim/wait_group.hpp"
#include "util/require.hpp"

namespace s3asim::mpiio {

using pfs::Extent;

class File {
 public:
  File(sim::Scheduler& scheduler, net::Network& network, pfs::Pfs& fs,
       mpi::Comm& comm, pfs::FileHandle handle,
       std::vector<mpi::Rank> participants, Hints hints = {})
      : scheduler_(&scheduler),
        network_(&network),
        fs_(&fs),
        comm_(&comm),
        handle_(handle),
        participants_(std::move(participants)),
        hints_(hints) {
    S3A_REQUIRE_MSG(!participants_.empty(),
                    "a file needs at least one participant");
    for (std::size_t slot = 0; slot < participants_.size(); ++slot) {
      S3A_REQUIRE(participants_[slot] < comm.size());
      slot_of_[participants_[slot]] = slot;
    }
    wait_time_.resize(participants_.size(), 0);
    next_collective_.resize(participants_.size(), 0);
    inactive_.resize(participants_.size(), false);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  [[nodiscard]] const Hints& hints() const noexcept { return hints_; }
  [[nodiscard]] pfs::FileHandle handle() const noexcept { return handle_; }

  /// Contiguous independent write.
  sim::Task<void> write_at(mpi::Rank rank, std::uint64_t offset,
                           std::uint64_t length) {
    co_await fs_->write_contiguous(handle_, comm_->endpoint_of(rank), offset,
                                   length);
  }

  /// Independent noncontiguous write of a flat extent list, executed by
  /// one of the three ADIO methods.
  sim::Task<void> write_noncontig(mpi::Rank rank, std::vector<Extent> extents,
                                  NoncontigMethod method) {
    switch (method) {
      case NoncontigMethod::Posix:
        co_await fs_->write_posix(handle_, comm_->endpoint_of(rank), extents);
        break;
      case NoncontigMethod::ListIo:
        co_await fs_->write_list(handle_, comm_->endpoint_of(rank), extents);
        break;
      case NoncontigMethod::Sieve:
        co_await fs_->write_sieved(handle_, comm_->endpoint_of(rank), extents,
                                   hints_.sieve_buffer_bytes);
        break;
    }
  }

  /// Contiguous independent read (MPI_File_read_at) — used by
  /// query-segmentation tools streaming database fragments.
  sim::Task<void> read_at(mpi::Rank rank, std::uint64_t offset,
                          std::uint64_t length) {
    co_await fs_->read_contiguous(handle_, comm_->endpoint_of(rank), offset,
                                  length);
  }

  /// Independent noncontiguous read of pre-flattened extents — the read
  /// twin of `write_noncontig`, same three ADIO methods.
  sim::Task<void> read_noncontig(mpi::Rank rank, std::vector<Extent> extents,
                                 NoncontigMethod method) {
    switch (method) {
      case NoncontigMethod::Posix:
        // One fully synchronous round trip per extent, in order.
        for (const Extent& extent : extents)
          co_await fs_->read_contiguous(handle_, comm_->endpoint_of(rank),
                                        extent.offset, extent.length);
        break;
      case NoncontigMethod::ListIo:
        co_await fs_->read_list(handle_, comm_->endpoint_of(rank), extents);
        break;
      case NoncontigMethod::Sieve:
        co_await fs_->read_sieved(handle_, comm_->endpoint_of(rank), extents,
                                  hints_.sieve_buffer_bytes);
        break;
    }
  }

  /// MPI_File_sync.
  sim::Task<void> sync(mpi::Rank rank) {
    co_await fs_->sync(handle_, comm_->endpoint_of(rank));
  }

  /// Collective write: must be called once per participant per collective
  /// round, with that participant's (possibly empty) extent list.
  sim::Task<void> write_at_all(mpi::Rank rank, std::vector<Extent> extents) {
    const std::size_t slot = slot_of(rank);
    const std::uint64_t id = next_collective_[slot]++;
    Context& ctx = context(id);

    // ---- Phase 0: arrival (the inherent synchronization). -----------------
    ctx.extents_by_slot[slot] = std::move(extents);
    const sim::Time before_arrive = scheduler_->now();
    ++ctx.arrived;
    maybe_open(ctx);
    if (!ctx.all_arrived.is_open()) co_await ctx.all_arrived.wait();
    wait_time_[slot] += scheduler_->now() - before_arrive;
    // Extent/offset allgather cost.
    co_await scheduler_->delay(allgather_cost());

    if (hints_.collective_algorithm == CollectiveAlgorithm::ListWithSync) {
      // The paper's proposed collective: everyone writes its own extents
      // with native list I/O, then synchronizes.
      co_await fs_->write_list(handle_, comm_->endpoint_of(rank),
                               ctx.extents_by_slot[slot]);
    } else {
      co_await two_phase_exchange_and_write(ctx, rank, slot);
    }

    // ---- Final phase: leave together. --------------------------------------
    const sim::Time before_exit = scheduler_->now();
    if (++ctx.finished == ctx.participant_count) {
      ctx.all_finished.open();
    } else {
      co_await ctx.all_finished.wait();
    }
    wait_time_[slot] += scheduler_->now() - before_exit;

    if (++ctx.departed == ctx.participant_count) contexts_.erase(id);
  }

  /// Fail-stop support: removes `rank` from collective participation.  The
  /// current and all future collective rounds complete once every *surviving*
  /// participant has arrived — peers blocked waiting for a dead rank are
  /// released (the two-phase plan is computed over survivors only).
  /// Independent operations are unaffected.  Idempotent.
  void deactivate(mpi::Rank rank) {
    const std::size_t slot = slot_of(rank);
    if (inactive_[slot]) return;
    inactive_[slot] = true;
    ++inactive_count_;
    S3A_REQUIRE_MSG(inactive_count_ < participants_.size(),
                    "every file participant failed");
    for (auto& [id, ctx] : contexts_) maybe_open(*ctx);
  }

  /// Cumulative time `rank` has spent stalled inside collective calls
  /// (arrival + exit synchronization; excludes its own writing).
  [[nodiscard]] sim::Time collective_wait(mpi::Rank rank) const {
    return wait_time_[slot_of(rank)];
  }

  /// Sum of collective stall time across every participant — what the core
  /// layer publishes as `mpiio.collective_wait_seconds` (observability).
  [[nodiscard]] sim::Time total_collective_wait() const noexcept {
    sim::Time total = 0;
    for (const sim::Time wait : wait_time_) total += wait;
    return total;
  }

  [[nodiscard]] const pfs::FileImage& image() const { return fs_->image(handle_); }

 private:
  struct Context {
    explicit Context(sim::Scheduler& scheduler, std::size_t parties)
        : all_arrived(scheduler),
          all_exchanged(scheduler),
          all_finished(scheduler),
          extents_by_slot(parties) {}
    sim::Gate all_arrived;
    sim::Gate all_exchanged;
    sim::Gate all_finished;
    std::vector<std::vector<Extent>> extents_by_slot;
    std::size_t arrived = 0;
    std::size_t exchanged = 0;
    std::size_t finished = 0;
    std::size_t departed = 0;
    /// Number of ranks in this round, snapshotted when the arrival gate
    /// opens (participants that were deactivated before arriving are not in
    /// the round; later phases count against this fixed membership).
    std::size_t participant_count = 0;
    // Two-phase plan, computed when the round opens:
    std::uint32_t aggregator_count = 0;
    std::vector<std::size_t> aggregator_slots; // active slots acting as aggs
    std::vector<Extent> domains;               // per-aggregator [offset,len)
    std::vector<std::vector<Extent>> to_write; // merged extents per aggregator
    std::uint64_t lo = 0;     // domain a starts at lo + a * chunk (clipped)
    std::uint64_t chunk = 0;  // 0: nothing to write this round
  };

  [[nodiscard]] std::size_t slot_of(mpi::Rank rank) const {
    const auto it = slot_of_.find(rank);
    S3A_REQUIRE_MSG(it != slot_of_.end(), "rank is not a file participant");
    return it->second;
  }

  Context& context(std::uint64_t id) {
    auto it = contexts_.find(id);
    if (it == contexts_.end()) {
      it = contexts_
               .emplace(id, std::make_unique<Context>(*scheduler_,
                                                      participants_.size()))
               .first;
    }
    return *it->second;
  }

  [[nodiscard]] std::size_t active_count() const noexcept {
    return participants_.size() - inactive_count_;
  }

  /// Opens a round's arrival gate once every active participant has arrived
  /// — triggered both by arrivals and by deactivations.
  void maybe_open(Context& ctx) {
    if (ctx.all_arrived.is_open()) return;
    if (ctx.arrived == 0 || ctx.arrived < active_count()) return;
    ctx.participant_count = ctx.arrived;
    plan(ctx);
    ctx.all_arrived.open();
  }

  [[nodiscard]] sim::Time allgather_cost() const noexcept {
    const auto parties = static_cast<double>(participants_.size());
    if (parties <= 1.0) return 0;
    const auto rounds =
        static_cast<sim::Time>(std::ceil(std::log2(parties)));
    return rounds * network_->params().latency;
  }

  /// Computes the two-phase plan: covered span, per-aggregator file domains
  /// (evenly split, optionally strip-aligned), and per-aggregator merged
  /// write lists.
  void plan(Context& ctx) {
    std::uint64_t lo = UINT64_MAX, hi = 0;
    std::vector<Extent> all;
    for (const auto& list : ctx.extents_by_slot) {
      for (const Extent& extent : list) {
        if (extent.length == 0) continue;
        lo = std::min(lo, extent.offset);
        hi = std::max(hi, extent.end());
        all.push_back(extent);
      }
    }
    // Aggregators are drawn from the *active* slots so a deactivated (dead)
    // participant is never given a file domain it can no longer write.
    std::vector<std::size_t> active_slots;
    for (std::size_t slot = 0; slot < participants_.size(); ++slot)
      if (!inactive_[slot]) active_slots.push_back(slot);
    const auto parties = static_cast<std::uint32_t>(active_slots.size());
    ctx.aggregator_count =
        hints_.cb_nodes == 0 ? parties : std::min(hints_.cb_nodes, parties);
    ctx.aggregator_slots.assign(active_slots.begin(),
                                active_slots.begin() + ctx.aggregator_count);
    ctx.domains.assign(ctx.aggregator_count, Extent{});
    ctx.to_write.assign(ctx.aggregator_count, {});
    if (all.empty()) return;

    std::uint64_t span = hi - lo;
    std::uint64_t chunk = (span + ctx.aggregator_count - 1) / ctx.aggregator_count;
    if (hints_.align_domains_to_strips) {
      const std::uint64_t strip = fs_->layout().strip_size();
      chunk = (chunk + strip - 1) / strip * strip;
    }
    ctx.lo = lo;
    ctx.chunk = chunk;
    for (std::uint32_t a = 0; a < ctx.aggregator_count; ++a) {
      const std::uint64_t start = std::min(hi, lo + a * chunk);
      const std::uint64_t end = std::min(hi, start + chunk);
      ctx.domains[a] = Extent{start, end - start};
    }

    // Merge all extents, then slice per domain.
    std::sort(all.begin(), all.end(), [](const Extent& a, const Extent& b) {
      return a.offset < b.offset;
    });
    std::vector<Extent> merged;
    for (const Extent& extent : all) {
      if (!merged.empty() && merged.back().end() >= extent.offset) {
        merged.back().length =
            std::max(merged.back().end(), extent.end()) - merged.back().offset;
      } else {
        merged.push_back(extent);
      }
    }
    // Merged extents ascend, so each domain's list fills in file order.
    for (const Extent& extent : merged)
      for_each_slice(ctx, extent, [&](std::uint32_t a, const Extent& slice) {
        ctx.to_write[a].push_back(slice);
      });
  }

  /// Calls `visit(a, slice)` for each nonempty piece of `extent` inside
  /// aggregator `a`'s domain, in ascending `a`: the first domain touched is
  /// found by division, and the walk stops at the first domain past the
  /// extent.
  template <class Visit>
  static void for_each_slice(const Context& ctx, const Extent& extent,
                             Visit&& visit) {
    if (ctx.chunk == 0 || extent.length == 0) return;
    const std::uint64_t first =
        extent.offset <= ctx.lo ? 0 : (extent.offset - ctx.lo) / ctx.chunk;
    for (auto a = static_cast<std::size_t>(
             std::min<std::uint64_t>(first, ctx.aggregator_count));
         a < ctx.aggregator_count && ctx.domains[a].offset < extent.end();
         ++a) {
      const Extent& domain = ctx.domains[a];
      const std::uint64_t s = std::max(extent.offset, domain.offset);
      const std::uint64_t e = std::min(extent.end(), domain.end());
      if (s < e) visit(static_cast<std::uint32_t>(a), Extent{s, e - s});
    }
  }

  /// One two-phase exchange send, as a pooled step spawned at the send:
  /// the transfer to the aggregator, then one mark on the round's latch.
  class ExchangeSend : public sim::Step, public sim::PoolAllocated {
   public:
    ExchangeSend(File& file, mpi::Rank from, mpi::Rank to,
                 std::uint64_t bytes, sim::WaitGroup& done) noexcept
        : Step(&fire_stage),
          file_(&file),
          done_(&done),
          bytes_(bytes),
          from_(from),
          to_(to) {}

   private:
    static void fire_stage(sim::Step& step) {
      auto& self = static_cast<ExchangeSend&>(step);
      File& file = *self.file_;
      if (!self.started_) {
        self.started_ = true;
        if (!self.transfer_.start(*file.network_,
                                  file.comm_->endpoint_of(self.from_),
                                  file.comm_->endpoint_of(self.to_),
                                  self.bytes_, &self))
          return;
      }
      sim::Scheduler& scheduler = *file.scheduler_;
      self.done_->done();
      delete &self;
      scheduler.note_process_finished();
    }

    File* file_;
    sim::WaitGroup* done_;
    std::uint64_t bytes_;
    mpi::Rank from_;
    mpi::Rank to_;
    bool started_ = false;
    net::Transfer transfer_;
  };

  sim::Task<void> two_phase_exchange_and_write(Context& ctx, mpi::Rank rank,
                                               std::size_t slot) {
    // ROMIO generic two-phase implementation overhead (see Hints).
    co_await scheduler_->delay(hints_.two_phase_round_overhead);

    // ---- Phase 1: data exchange to aggregators. ---------------------------
    std::vector<std::uint64_t>& bytes = exchange_bytes_;
    bytes.assign(ctx.aggregator_count, 0);
    for (const Extent& extent : ctx.extents_by_slot[slot])
      for_each_slice(ctx, extent, [&](std::uint32_t a, const Extent& slice) {
        bytes[a] += slice.length;
      });
    sim::WaitGroup sends(*scheduler_);
    for (std::uint32_t a = 0; a < ctx.aggregator_count; ++a) {
      if (bytes[a] == 0) continue;
      sends.add();
      scheduler_->spawn(*new ExchangeSend(
          *this, rank, participants_[ctx.aggregator_slots[a]], bytes[a],
          sends));
    }
    co_await sends.wait();
    if (++ctx.exchanged == ctx.participant_count) {
      ctx.all_exchanged.open();
    } else {
      co_await ctx.all_exchanged.wait();
    }

    // ---- Phase 2: aggregators write their domains in cb_buffer_size
    //      rounds of (mostly) contiguous data. -------------------------------
    const auto agg_it = std::find(ctx.aggregator_slots.begin(),
                                  ctx.aggregator_slots.end(), slot);
    const auto agg =
        static_cast<std::size_t>(agg_it - ctx.aggregator_slots.begin());
    if (agg_it != ctx.aggregator_slots.end() && !ctx.to_write[agg].empty()) {
      const std::uint64_t round_bytes = std::max<std::uint64_t>(
          hints_.cb_buffer_size, fs_->layout().strip_size());
      std::vector<Extent> round;
      std::uint64_t filled = 0;
      for (const Extent& extent : ctx.to_write[agg]) {
        std::uint64_t offset = extent.offset;
        std::uint64_t remaining = extent.length;
        while (remaining > 0) {
          const std::uint64_t take = std::min(remaining, round_bytes - filled);
          round.push_back(Extent{offset, take});
          offset += take;
          remaining -= take;
          filled += take;
          if (filled == round_bytes) {
            co_await fs_->write_list(handle_, comm_->endpoint_of(rank), round);
            round.clear();
            filled = 0;
          }
        }
      }
      if (!round.empty())
        co_await fs_->write_list(handle_, comm_->endpoint_of(rank), round);
    }
  }

  sim::Scheduler* scheduler_;
  net::Network* network_;
  pfs::Pfs* fs_;
  mpi::Comm* comm_;
  pfs::FileHandle handle_;
  std::vector<mpi::Rank> participants_;
  Hints hints_;
  std::map<mpi::Rank, std::size_t> slot_of_;
  std::vector<sim::Time> wait_time_;
  std::vector<std::uint64_t> next_collective_;
  std::vector<bool> inactive_;  ///< deactivated (failed) participants
  std::size_t inactive_count_ = 0;
  std::map<std::uint64_t, std::unique_ptr<Context>> contexts_;
  /// Per-aggregator bytes of the exchange being sent; every read happens
  /// before the sending participant first suspends.
  std::vector<std::uint64_t> exchange_bytes_;
};

}  // namespace s3asim::mpiio
