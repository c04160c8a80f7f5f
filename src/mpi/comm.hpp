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
/// child coroutines: the `co_await` keeps the awaiter (a `sim::Gate` for a
/// send; a `RequestState`, i.e. the gate plus the slot the matched message
/// lands in, for a receive) in the awaiting coroutine's frame, and the
/// delivery process or posted-receive entry points at it.  Completion
/// opens that gate, which resumes the awaiting coroutine directly.  A
/// receive found in the unexpected queue completes in `await_ready`
/// without suspending, so draining a backlog costs no event and no stack.
/// A posted receive must complete (or be cancelled by `cancel_posted`)
/// before its awaiting frame is destroyed.  No operation allocates
/// completion state.
///
/// Every entry point validates its ranks and tags at the call.

#include <cmath>
#include <coroutine>
#include <deque>
#include <vector>

#include "mpi/message.hpp"
#include "net/network.hpp"
#include "sim/barrier.hpp"
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

  /// Awaiter of a blocking send; see `send`.  It is neither copyable nor
  /// movable, so `done_` keeps the address `deliver` was created with.
  class [[nodiscard]] SendAwaiter {
   public:
    SendAwaiter(const SendAwaiter&) = delete;
    SendAwaiter& operator=(const SendAwaiter&) = delete;

    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      scheduler_->spawn(std::move(delivery_));
      done_.wait().await_suspend(handle);
    }
    void await_resume() const noexcept {}

   private:
    friend class Comm;
    SendAwaiter(Comm& comm, Rank src, Rank dst, Tag tag, std::uint64_t bytes,
                Payload payload)
        : scheduler_(comm.scheduler_),
          done_(*comm.scheduler_),
          delivery_(comm.deliver(src, dst, tag, bytes, std::move(payload),
                                 &done_)) {}

    sim::Scheduler* scheduler_;
    sim::Gate done_;
    sim::Process delivery_;  ///< not started until `await_suspend`
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
        deliver(src, dst, tag, bytes, std::move(payload), nullptr));
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

  /// Moves one message over the network and matches it at `dst`, then
  /// opens `sent` (null for a posted send).
  sim::Process deliver(Rank src, Rank dst, Tag tag, std::uint64_t bytes,
                       Payload payload, sim::Gate* sent) {
    const sim::Time sent_at = scheduler_->now();
    co_await network_->transfer(endpoint_of(src), endpoint_of(dst), bytes);
    if (observer_ != nullptr)
      observer_->on_message_delivered(src, dst, tag, bytes, sent_at,
                                      scheduler_->now());
    Message message{.source = src, .tag = tag, .bytes = bytes,
                    .payload = std::move(payload)};
    Mailbox& box = mailboxes_[dst];
    bool matched = false;
    for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
      if (matches(it->source, it->tag, message)) {
        RequestState* receiver = it->slot;
        box.posted.erase(it);
        receiver->message = std::move(message);
        receiver->mark_complete();
        matched = true;
        break;
      }
    }
    if (!matched) box.unexpected.push_back(std::move(message));
    if (sent != nullptr) sent->open();
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
