#pragma once

/// \file network.hpp
/// Store-and-forward endpoint network.
///
/// Every endpoint owns a TX resource and an RX resource.  A transfer:
///   1. serializes at the sender's TX path for `overhead + bytes/bw`,
///   2. crosses the wire (pure latency, unlimited in flight — Myrinet's
///      switching fabric was not the bottleneck in the paper's runs),
///   3. serializes at the receiver's RX path for `overhead + bytes/bw`.
///
/// The RX resource is what creates the master-NIC contention central to the
/// paper's MW results: 95 workers funneling result payloads into one
/// endpoint queue behind each other.
///
/// A transfer is a frame-less `sim::Step` (`Transfer`), not a coroutine: it
/// steps through its stages as events of its own and, last, resumes whoever
/// started it inline.  `co_await network.transfer(...)` keeps the step in
/// the awaiting frame; a PFS round trip or an MPI delivery embeds one
/// (DESIGN.md §7 "Frame-less wire operations").

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/model.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/step.hpp"
#include "sim/time.hpp"
#include "util/require.hpp"

namespace s3asim::net {

/// Cumulative per-endpoint traffic counters (observability for tests and
/// the trace layer).
struct EndpointCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  sim::Time tx_busy = 0;
  sim::Time rx_busy = 0;
};

class Network {
  struct Endpoint {
    explicit Endpoint(sim::Scheduler& scheduler)
        : tx(scheduler), rx(scheduler) {}
    sim::Resource tx;
    sim::Resource rx;
    EndpointCounters counters;
  };

 public:
  /// One message moving from `src` to `dst`, as a step.  Its stages, each
  /// entered inline when the one before it needs no wait:
  ///
  /// | stage    | waits for                  | then                        |
  /// |----------|----------------------------|-----------------------------|
  /// | TX grant | the sender's TX slot       |                             |
  /// | fabric   | a fabric slot (if bounded) |                             |
  /// | TX wire  | `overhead + bytes/bw`      | release fabric, TX; count   |
  /// | latency  | the wire latency           |                             |
  /// | RX grant | the receiver's RX slot     |                             |
  /// | RX wire  | `overhead + bytes/bw`      | release RX; count; resume   |
  ///
  /// A self-send waits `overhead` once and counts at both ends.  A wait of
  /// zero time pushes no event.
  class Transfer : public sim::Step {
   public:
    Transfer() noexcept : Step(&fire_stage) {}

    /// Starts moving `bytes` from `src` to `dst`.  Returns true if no stage
    /// had to wait: the caller carries on inline and `then` is never used.
    /// Otherwise the stage that completes the transfer resumes `then`
    /// inline, as its last act.
    bool start(Network& network, EndpointId src, EndpointId dst,
               std::uint64_t bytes, sim::Target then);

   private:
    enum class Stage : std::uint8_t {
      SelfWire,
      SelfDone,
      TxGrant,
      FabricGrant,
      TxWire,
      Sent,
      RxGrant,
      RxWire,
      Received,
    };

    /// Runs stages from `stage_` until one must wait (false) or the
    /// transfer is done (true).
    bool advance();
    /// Schedules the next stage `duration` from now; false (no event) if
    /// the wait is empty.
    bool wait(sim::Time duration);

    static void fire_stage(sim::Step& step) {
      auto& self = static_cast<Transfer&>(step);
      if (!self.advance()) return;
      const sim::Target then = self.then_;
      then.resume();  // last act: `then` may end this transfer's storage
    }

    Network* network_ = nullptr;
    Endpoint* sender_ = nullptr;
    Endpoint* receiver_ = nullptr;
    std::uint64_t bytes_ = 0;
    sim::Time wire_time_ = 0;
    sim::Target then_{};
    Stage stage_ = Stage::TxGrant;
  };

  /// Awaiter of `transfer`: the step lives in the awaiting frame.
  class [[nodiscard]] TransferAwaiter {
   public:
    TransferAwaiter(const TransferAwaiter&) = delete;
    TransferAwaiter& operator=(const TransferAwaiter&) = delete;

    [[nodiscard]] bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> caller) {
      return !transfer_.start(*network_, src_, dst_, bytes_, caller);
    }
    void await_resume() const noexcept {}

   private:
    friend class Network;
    TransferAwaiter(Network& network, EndpointId src, EndpointId dst,
                    std::uint64_t bytes) noexcept
        : network_(&network), src_(src), dst_(dst), bytes_(bytes) {}

    Network* network_;
    EndpointId src_;
    EndpointId dst_;
    std::uint64_t bytes_;
    Transfer transfer_;
  };

  Network(sim::Scheduler& scheduler, std::uint32_t endpoint_count,
          LinkParams params = LinkParams::myrinet2000())
      : scheduler_(&scheduler), params_(params) {
    S3A_REQUIRE(endpoint_count >= 1);
    endpoints_.reserve(endpoint_count);
    for (std::uint32_t i = 0; i < endpoint_count; ++i)
      endpoints_.push_back(std::make_unique<Endpoint>(scheduler));
    if (params.fabric_concurrent_transfers > 0)
      fabric_ = std::make_unique<sim::Resource>(
          scheduler, params.fabric_concurrent_transfers);
  }

  [[nodiscard]] std::uint32_t endpoint_count() const noexcept {
    return static_cast<std::uint32_t>(endpoints_.size());
  }
  [[nodiscard]] const LinkParams& params() const noexcept { return params_; }

  /// Simulates moving `bytes` from `src` to `dst`; `co_await` completes
  /// when the last byte has been ejected at the receiver.  Self-sends skip
  /// the wire but still pay the software overhead once.
  TransferAwaiter transfer(EndpointId src, EndpointId dst,
                           std::uint64_t bytes) noexcept {
    return TransferAwaiter(*this, src, dst, bytes);
  }

  [[nodiscard]] const EndpointCounters& counters(EndpointId id) const {
    S3A_REQUIRE(id < endpoints_.size());
    return endpoints_[id]->counters;
  }

  /// Queue length at the receiver side of an endpoint (diagnostics).
  [[nodiscard]] std::size_t rx_queue_length(EndpointId id) const {
    S3A_REQUIRE(id < endpoints_.size());
    return endpoints_[id]->rx.queue_length();
  }

 private:
  sim::Scheduler* scheduler_;
  LinkParams params_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::unique_ptr<sim::Resource> fabric_;  ///< null = non-blocking fabric
};

/// The step a round trip or a delivery embeds to move its bytes.
using Transfer = Network::Transfer;

inline bool Network::Transfer::start(Network& network, EndpointId src,
                                     EndpointId dst, std::uint64_t bytes,
                                     sim::Target then) {
  S3A_REQUIRE(src < network.endpoints_.size() &&
              dst < network.endpoints_.size());
  network_ = &network;
  sender_ = network.endpoints_[src].get();
  receiver_ = network.endpoints_[dst].get();
  bytes_ = bytes;
  then_ = then;
  const LinkParams& params = network.params_;
  if (src == dst) {
    wire_time_ = params.per_message_overhead;
    stage_ = Stage::SelfWire;
  } else {
    wire_time_ = params.per_message_overhead +
                 sim::transfer_time(bytes, params.bandwidth_bps);
    stage_ = Stage::TxGrant;
  }
  return advance();
}

inline bool Network::Transfer::wait(sim::Time duration) {
  if (duration <= 0) return false;
  sim::Scheduler& scheduler = *network_->scheduler_;
  scheduler.schedule_at(this, scheduler.now() + duration);
  return true;
}

// Each case sets the stage to resume at before it may wait, then falls
// through when it need not.  Releases happen before the next wait is
// scheduled, as the statements of a coroutine would order them.
inline bool Network::Transfer::advance() {
  switch (stage_) {
    case Stage::SelfWire:
      stage_ = Stage::SelfDone;
      if (wait(wire_time_)) return false;
      [[fallthrough]];
    case Stage::SelfDone:
      ++sender_->counters.messages_sent;
      ++receiver_->counters.messages_received;
      sender_->counters.bytes_sent += bytes_;
      receiver_->counters.bytes_received += bytes_;
      return true;
    case Stage::TxGrant:
      stage_ = Stage::FabricGrant;
      if (!sender_->tx.acquire_or_queue(*this)) return false;
      [[fallthrough]];
    case Stage::FabricGrant:
      stage_ = Stage::TxWire;
      if (network_->fabric_ && !network_->fabric_->acquire_or_queue(*this))
        return false;
      [[fallthrough]];
    case Stage::TxWire:
      stage_ = Stage::Sent;
      if (wait(wire_time_)) return false;
      [[fallthrough]];
    case Stage::Sent:
      if (network_->fabric_) network_->fabric_->release();
      sender_->counters.tx_busy += wire_time_;
      sender_->tx.release();
      ++sender_->counters.messages_sent;
      sender_->counters.bytes_sent += bytes_;
      stage_ = Stage::RxGrant;
      if (wait(network_->params_.latency)) return false;
      [[fallthrough]];
    case Stage::RxGrant:
      stage_ = Stage::RxWire;
      if (!receiver_->rx.acquire_or_queue(*this)) return false;
      [[fallthrough]];
    case Stage::RxWire:
      stage_ = Stage::Received;
      if (wait(wire_time_)) return false;
      [[fallthrough]];
    case Stage::Received:
      receiver_->counters.rx_busy += wire_time_;
      receiver_->rx.release();
      ++receiver_->counters.messages_received;
      receiver_->counters.bytes_received += bytes_;
      return true;
  }
  S3A_UNREACHABLE();
}

}  // namespace s3asim::net
