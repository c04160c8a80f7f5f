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

#include <cstdint>
#include <memory>
#include <vector>

#include "net/model.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
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
 public:
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

  /// Simulates moving `bytes` from `src` to `dst`; completes when the last
  /// byte has been ejected at the receiver.  Self-sends skip the wire but
  /// still pay the software overhead once.
  sim::Task<void> transfer(EndpointId src, EndpointId dst, std::uint64_t bytes) {
    S3A_REQUIRE(src < endpoints_.size() && dst < endpoints_.size());
    Endpoint& sender = *endpoints_[src];
    Endpoint& receiver = *endpoints_[dst];

    if (src == dst) {
      const sim::Time cost = params_.per_message_overhead;
      co_await scheduler_->delay(cost);
      ++sender.counters.messages_sent;
      ++receiver.counters.messages_received;
      sender.counters.bytes_sent += bytes;
      receiver.counters.bytes_received += bytes;
      co_return;
    }

    const sim::Time wire_time =
        params_.per_message_overhead +
        sim::transfer_time(bytes, params_.bandwidth_bps);

    // TX serialization at the sender; an oversubscribed fabric additionally
    // bounds how many injections can proceed at once.
    co_await sender.tx.acquire();
    {
      sim::ResourceHold hold(sender.tx);
      if (fabric_) {
        co_await fabric_->acquire();
        sim::ResourceHold fabric_hold(*fabric_);
        co_await scheduler_->delay(wire_time);
      } else {
        co_await scheduler_->delay(wire_time);
      }
      sender.counters.tx_busy += wire_time;
    }
    ++sender.counters.messages_sent;
    sender.counters.bytes_sent += bytes;

    // Wire latency: no contention modeled in the switch fabric.
    co_await scheduler_->delay(params_.latency);

    // RX serialization at the receiver.
    co_await receiver.rx.acquire();
    {
      sim::ResourceHold hold(receiver.rx);
      co_await scheduler_->delay(wire_time);
      receiver.counters.rx_busy += wire_time;
    }
    ++receiver.counters.messages_received;
    receiver.counters.bytes_received += bytes;
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
  struct Endpoint {
    explicit Endpoint(sim::Scheduler& scheduler) : tx(scheduler), rx(scheduler) {}
    sim::Resource tx;
    sim::Resource rx;
    EndpointCounters counters;
  };

  sim::Scheduler* scheduler_;
  LinkParams params_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::unique_ptr<sim::Resource> fabric_;  ///< null = non-blocking fabric
};

}  // namespace s3asim::net
