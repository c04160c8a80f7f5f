#pragma once

/// \file comm.hpp
/// An MPI-like communicator over the simulated network.
///
/// Semantics follow the MPI point-to-point model closely enough to express
/// the paper's Algorithms 1 and 2 verbatim:
///  * `send` (MPI_Send) suspends until the message has fully arrived at the
///    destination NIC (conservative: between eager and rendezvous).
///  * `recv` (MPI_Recv) matches against the unexpected-message queue first,
///    then is posted; matching is (source, tag) with wildcards, FIFO within
///    a pair (MPI's non-overtaking rule for identical envelopes).
///  * `post` is MPI_Isend followed by MPI_Request_free: the message goes
///    out exactly as a `send`'s would, and nobody can wait for it.
///  * `barrier` is a dissemination-style barrier: all ranks arrive, then pay
///    ceil(log2(P)) network latencies.
///
/// Who owns completion state.  `send` and `recv` return awaiters, not
/// child coroutines, and a message's trip is a frame-less `Delivery` step
/// (the wire transfer, then the match), not a coroutine.  The `co_await`
/// keeps the awaiter in the awaiting coroutine's frame: for a send, the
/// delivery itself, which schedules the sender once the message is
/// matched; for a receive, a `RequestState` (a gate plus the slot the
/// matched message lands in) that the posted-receive entry points at and
/// that the match opens.  A receive found in the unexpected queue
/// completes in `await_ready` without suspending, so draining a backlog
/// costs no event and no stack.  A posted receive must complete (or be
/// cancelled by `cancel_posted`) before its awaiting frame is destroyed.
/// A blocking send or receive allocates nothing; a `post` takes one pooled
/// block for its delivery (DESIGN.md §7 "Frame-less wire operations").
///
/// Every entry point validates its ranks and tags at the call.

#include <cmath>
#include <coroutine>
#include <deque>
#include <vector>

#include "mpi/message.hpp"
#include "net/network.hpp"
#include "sim/barrier.hpp"
#include "sim/frame_pool.hpp"
#include "sim/step.hpp"
#include "sim/task.hpp"
#include "util/require.hpp"

namespace s3asim::mpi {

/// Per-message observability hook: fires once per delivered message, after
/// the wire transfer completes (at matching time, whether or not a receive
/// was already posted).  `sent` is the time the send was issued,
/// `received` the arrival at the destination NIC.  Implemented by the core
/// observer bridge (flow events + message histograms); with no observer
/// attached delivery is unchanged.
class MessageObserver {
 public:
  virtual ~MessageObserver() = default;
  virtual void on_message_delivered(Rank src, Rank dst, Tag tag,
                                    std::uint64_t bytes, sim::Time sent,
                                    sim::Time received) = 0;
};

class Comm {
 public:
  /// Ranks map to network endpoints [endpoint_base, endpoint_base + size).
  Comm(sim::Scheduler& scheduler, net::Network& network, Rank size,
       net::EndpointId endpoint_base = 0)
      : scheduler_(&scheduler),
        network_(&network),
        size_(size),
        endpoint_base_(endpoint_base),
        barrier_(scheduler, size) {
    S3A_REQUIRE(size >= 1);
    S3A_REQUIRE(endpoint_base + size <= network.endpoint_count());
    mailboxes_.resize(size);
  }
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] Rank size() const noexcept { return size_; }

  /// One message's trip, as a step spawned at the send: the wire transfer,
  /// then the match at `dst`, then — for a `send` — the blocked sender
  /// scheduled, or — for a `post` — its pooled block freed.  It counts as
  /// a process from its spawn to its match.
  class Delivery : public sim::Step, public sim::PoolAllocated {
   public:
    Delivery(Comm& comm, Rank src, Rank dst, Tag tag, std::uint64_t bytes,
             Payload payload) noexcept
        : Step(&fire_stage),
          comm_(&comm),
          bytes_(bytes),
          src_(src),
          dst_(dst),
          tag_(tag),
          payload_(std::move(payload)) {}

    /// Spawns the delivery of a blocking send: `sender` is scheduled once
    /// the message is matched.
    void spawn_for(std::coroutine_handle<> sender) {
      sender_ = sender;
      comm_->scheduler_->spawn(*this);
    }

   private:
    friend class Comm;

    static void fire_stage(sim::Step& step) {
      auto& self = static_cast<Delivery&>(step);
      Comm& comm = *self.comm_;
      if (!self.started_) {
        self.started_ = true;
        self.sent_at_ = comm.scheduler_->now();
        if (!self.transfer_.start(*comm.network_, comm.endpoint_of(self.src_),
                                  comm.endpoint_of(self.dst_), self.bytes_,
                                  &self))
          return;
      }
      comm.arrive(self);
      sim::Scheduler& scheduler = *comm.scheduler_;
      if (self.sender_) {
        scheduler.schedule_now(self.sender_);
      } else {
        delete &self;  // posted: nobody waits for it
      }
      scheduler.note_process_finished();
    }

    Comm* comm_;
    std::uint64_t bytes_;
    sim::Time sent_at_ = 0;
    Rank src_;
    Rank dst_;
    Tag tag_;
    bool started_ = false;
    std::coroutine_handle<> sender_{};  ///< null for a `post`
    Payload payload_;
    net::Transfer transfer_;
  };

  /// Awaiter of a blocking send; see `send`.  It holds the delivery, so it
  /// is neither copyable nor movable.
  class [[nodiscard]] SendAwaiter {
   public:
    SendAwaiter(const SendAwaiter&) = delete;
    SendAwaiter& operator=(const SendAwaiter&) = delete;

    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      delivery_.spawn_for(handle);
    }
    void await_resume() const noexcept {}

   private:
    friend class Comm;
    SendAwaiter(Comm& comm, Rank src, Rank dst, Tag tag, std::uint64_t bytes,
                Payload payload) noexcept
        : delivery_(comm, src, dst, tag, bytes, std::move(payload)) {}

    Delivery delivery_;  ///< not started until `await_suspend`
  };

  /// Awaiter of a blocking receive; see `recv`.
  class [[nodiscard]] RecvAwaiter {
   public:
    RecvAwaiter(const RecvAwaiter&) = delete;
    RecvAwaiter& operator=(const RecvAwaiter&) = delete;

    [[nodiscard]] bool await_ready() {
      return comm_->take_unexpected(self_, source_, tag_, slot_.message);
    }
    void await_suspend(std::coroutine_handle<> handle) {
      comm_->mailboxes_[self_].posted.push_back(
          PostedRecv{source_, tag_, &slot_});
      slot_.gate().wait().await_suspend(handle);
    }
    Message await_resume() noexcept { return std::move(slot_.message); }

   private:
    friend class Comm;
    RecvAwaiter(Comm& comm, Rank self, Rank source, Tag tag)
        : comm_(&comm),
          self_(self),
          source_(source),
          tag_(tag),
          slot_(*comm.scheduler_) {}

    Comm* comm_;
    Rank self_;
    Rank source_;
    Tag tag_;
    RequestState slot_;
  };

  /// Blocking send (MPI_Send): `co_await` returns when the message has
  /// been delivered.
  SendAwaiter send(Rank src, Rank dst, Tag tag, std::uint64_t bytes,
                   Payload payload) {
    check_send(src, dst, tag);
    return SendAwaiter(*this, src, dst, tag, bytes, std::move(payload));
  }
  /// Blocking send of a payload-free message.  Its empty payload lives in
  /// this call, not as an argument temporary in the awaiting frame.
  SendAwaiter send(Rank src, Rank dst, Tag tag, std::uint64_t bytes) {
    return send(src, dst, tag, bytes, Payload{});
  }

  /// Blocking receive (MPI_Recv); `source`/`tag` may be wildcards.
  RecvAwaiter recv(Rank self, Rank source, Tag tag) {
    check_recv(self, source, tag);
    return RecvAwaiter(*this, self, source, tag);
  }

  /// Fire-and-forget send (MPI_Isend + MPI_Request_free): the message is
  /// delivered exactly as a `send`'s, and nothing is allocated to track it.
  void post(Rank src, Rank dst, Tag tag, std::uint64_t bytes,
            Payload payload) {
    check_send(src, dst, tag);
    scheduler_->spawn(
        *new Delivery(*this, src, dst, tag, bytes, std::move(payload)));
  }
  /// Fire-and-forget send of a payload-free message.
  void post(Rank src, Rank dst, Tag tag, std::uint64_t bytes) {
    post(src, dst, tag, bytes, Payload{});
  }

  /// MPI_Barrier over all ranks of this communicator.
  sim::Task<void> barrier() {
    co_await barrier_.arrive_and_wait();
    co_await scheduler_->delay(barrier_cost());
  }

  /// Fail-stop support: removes one rank from barrier membership so the
  /// survivors' barrier() completes without it (ULFM-style shrink).
  void barrier_leave() { barrier_.leave(); }

  /// MPI_Cancel analog, used at teardown: every receive still posted at
  /// `rank` completes immediately (zero simulated cost) with a message
  /// marked `cancelled`, so progress loops can exit instead of staying
  /// suspended forever.
  void cancel_posted(Rank rank) {
    S3A_REQUIRE(rank < size_);
    auto posted = std::move(mailboxes_[rank].posted);
    mailboxes_[rank].posted.clear();
    for (PostedRecv& recv : posted) {
      recv.slot->message = Message{};
      recv.slot->message.cancelled = true;
      recv.slot->mark_complete();
    }
  }

  /// Number of messages sitting unmatched in a rank's unexpected queue.
  [[nodiscard]] std::size_t unexpected_count(Rank rank) const {
    S3A_REQUIRE(rank < size_);
    return mailboxes_[rank].unexpected.size();
  }
  /// Number of posted-but-unmatched receives at a rank.
  [[nodiscard]] std::size_t posted_count(Rank rank) const {
    S3A_REQUIRE(rank < size_);
    return mailboxes_[rank].posted.size();
  }

  [[nodiscard]] net::EndpointId endpoint_of(Rank rank) const noexcept {
    return endpoint_base_ + rank;
  }

  /// Attaches (or detaches, with nullptr) the per-message observer.
  void set_observer(MessageObserver* observer) noexcept {
    observer_ = observer;
  }

 private:
  /// A posted receive: `slot` is where the match lands, in the awaiting
  /// frame.
  struct PostedRecv {
    Rank source;
    Tag tag;
    RequestState* slot;
  };
  struct Mailbox {
    Mailbox() = default;
    // Message (and so this) is move-only; spelling it out keeps vector
    // growth on the move path instead of instantiating the deleted copy.
    Mailbox(const Mailbox&) = delete;
    Mailbox& operator=(const Mailbox&) = delete;
    Mailbox(Mailbox&&) noexcept = default;
    Mailbox& operator=(Mailbox&&) noexcept = default;

    std::vector<PostedRecv> posted;
    std::deque<Message> unexpected;
  };

  void check_send(Rank src, Rank dst, Tag tag) const {
    S3A_REQUIRE(src < size_ && dst < size_);
    S3A_REQUIRE_MSG(tag >= 0, "send tag must be non-negative");
  }

  /// A receive that could never match would hang its rank until teardown.
  void check_recv(Rank self, Rank source, Tag tag) const {
    S3A_REQUIRE(self < size_);
    S3A_REQUIRE_MSG(source < size_ || source == kAnySource,
                    "receive source outside the communicator");
    S3A_REQUIRE_MSG(tag >= kAnyTag, "receive tag below kAnyTag");
  }

  /// Moves the oldest unexpected message at `self` matching (source, tag)
  /// into `out`; false if none matches.
  bool take_unexpected(Rank self, Rank source, Tag tag, Message& out) {
    auto& unexpected = mailboxes_[self].unexpected;
    for (auto it = unexpected.begin(); it != unexpected.end(); ++it) {
      if (matches(source, tag, *it)) {
        out = std::move(*it);
        unexpected.erase(it);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] static bool matches(Rank want_source, Tag want_tag,
                                    const Message& message) noexcept {
    const bool source_ok = want_source == kAnySource || want_source == message.source;
    const bool tag_ok = want_tag == kAnyTag || want_tag == message.tag;
    return source_ok && tag_ok;
  }

  [[nodiscard]] sim::Time barrier_cost() const noexcept {
    if (size_ <= 1) return 0;
    const auto rounds = static_cast<double>(
        std::ceil(std::log2(static_cast<double>(size_))));
    return static_cast<sim::Time>(rounds) * network_->params().latency;
  }

  /// A delivery's message has arrived at its destination NIC: reports it
  /// to the observer and matches it against the posted receives, or queues
  /// it as unexpected.
  void arrive(Delivery& delivery) {
    if (observer_ != nullptr)
      observer_->on_message_delivered(delivery.src_, delivery.dst_,
                                      delivery.tag_, delivery.bytes_,
                                      delivery.sent_at_, scheduler_->now());
    Message message{.source = delivery.src_, .tag = delivery.tag_,
                    .bytes = delivery.bytes_,
                    .payload = std::move(delivery.payload_)};
    Mailbox& box = mailboxes_[delivery.dst_];
    for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
      if (matches(it->source, it->tag, message)) {
        RequestState* receiver = it->slot;
        box.posted.erase(it);
        receiver->message = std::move(message);
        receiver->mark_complete();
        return;
      }
    }
    box.unexpected.push_back(std::move(message));
  }

  sim::Scheduler* scheduler_;
  net::Network* network_;
  Rank size_;
  net::EndpointId endpoint_base_;
  MessageObserver* observer_ = nullptr;
  sim::Barrier barrier_;
  std::vector<Mailbox> mailboxes_;
};

}  // namespace s3asim::mpi
