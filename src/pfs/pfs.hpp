#pragma once

/// \file pfs.hpp
/// The simulated parallel file system: N server processes behind network
/// endpoints, a metadata server, striped file layout, and the client
/// paths that write and read it.
///
/// PVFS2 properties modeled (paper §3.1):
///  * no locking and no atomicity for overlapping writes — requests from
///    different clients interleave freely with no false-sharing
///    serialization;
///  * native noncontiguous support: one list-I/O request ships an arbitrary
///    OL (offset-length) list to each touched server;
///  * server-side costs: per-request overhead, per-OL-pair overhead, byte
///    bandwidth, and an explicit sync (flush) request.
///
/// Every client operation is one coroutine built on two helpers:
/// `RoundTrip` (one request to one server — the only code that enqueues
/// server work) and `fan_out` (one request per touched server, in
/// parallel).  A round trip is a frame-less `sim::Step`, not a coroutine:
/// awaited, it lives in the awaiting frame; fanned out, each is spawned in
/// a pooled block of its own, and the server wakes it by scheduling it
/// (DESIGN.md §7 "Frame-less wire operations").  The access methods of
/// ROMIO's ADIO layer differ only in the requests they shape
/// (docs/IO_MODEL.md): list I/O ships each server's whole OL list, POSIX
/// one round trip per extent, and data sieving (sieve.hpp) contiguous
/// buffer-sized windows.
///
/// Optional client-side cache layer (DESIGN.md §10): when
/// `PfsParams::cache` is enabled, each operation consults a per-client
/// write-back `ClientCache` guarded by byte-range lease tokens granted by
/// the metadata server (`TokenManager` + a serialized token service).
/// Sieved accesses then go through the cache as list I/O: the cache
/// already coalesces at block granularity and keeps granules resident, so
/// a sieve buffer under it would re-read bytes the cache is about to keep
/// (docs/IO_MODEL.md §5).

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "pfs/cache.hpp"
#include "pfs/disk.hpp"
#include "pfs/file_image.hpp"
#include "pfs/layout.hpp"
#include "pfs/pfs_types.hpp"
#include "pfs/sieve.hpp"
#include "sim/channel.hpp"
#include "sim/frame_pool.hpp"
#include "sim/resource.hpp"
#include "sim/step.hpp"
#include "sim/task.hpp"
#include "sim/wait_group.hpp"
#include "util/require.hpp"

namespace s3asim::pfs {

class Pfs {
 public:
  /// Servers occupy network endpoints [server_endpoint_base,
  /// server_endpoint_base + layout.server_count()).  Server 0 doubles as
  /// the metadata server (matching the paper's configuration).
  Pfs(sim::Scheduler& scheduler, net::Network& network,
      net::EndpointId server_endpoint_base, PfsParams params = {})
      : scheduler_(&scheduler),
        network_(&network),
        params_(params),
        server_endpoint_base_(server_endpoint_base) {
    const std::uint32_t count = params_.layout.server_count();
    S3A_REQUIRE(server_endpoint_base + count <= network.endpoint_count());
    servers_.reserve(count);
    for (std::uint32_t s = 0; s < count; ++s) {
      servers_.push_back(std::make_unique<Server>(scheduler));
      scheduler_->spawn(server_loop(s));
    }
    for (const ServerDegradation& degradation : params_.degradations) {
      S3A_REQUIRE_MSG(degradation.server < count,
                      "degraded server id out of range");
      S3A_REQUIRE(degradation.service_factor >= 1.0);
      servers_[degradation.server]->faults.push_back(
          ActiveFault{degradation, false});
    }
    if (params_.cache.enabled()) {
      const CacheParams& cache = params_.cache;
      S3A_REQUIRE_MSG(cache.block_bytes > 0 &&
                          params_.layout.strip_size() % cache.block_bytes == 0,
                      "cache_block must divide the layout strip size");
      S3A_REQUIRE_MSG(cache.token_bytes >= cache.block_bytes &&
                          cache.token_bytes % cache.block_bytes == 0,
                      "token_granularity must be a multiple of cache_block");
      S3A_REQUIRE_MSG(cache.capacity_bytes >= cache.block_bytes,
                      "cache_capacity must hold at least one cache block");
      tokens_ = std::make_unique<TokenManager>();
      token_service_ = std::make_unique<sim::Resource>(scheduler, 1);
    }
  }
  Pfs(const Pfs&) = delete;
  Pfs& operator=(const Pfs&) = delete;

  [[nodiscard]] const Layout& layout() const noexcept { return params_.layout; }
  [[nodiscard]] const PfsParams& params() const noexcept { return params_; }

  /// Stops all server loops (call after the application has quiesced so the
  /// scheduler can drain to zero live processes).
  void shutdown() {
    for (const auto& server : servers_) server->queue.close();
  }

  /// Creates a file; models a metadata round trip from `client` to the
  /// metadata server (server 0).
  sim::Task<FileHandle> create_file(net::EndpointId client, std::string name) {
    co_await network_->transfer(client, server_endpoint_base_,
                                params_.request_header_bytes);
    account_metadata_op();
    co_await scheduler_->delay(params_.metadata_op);
    co_await network_->transfer(server_endpoint_base_, client, params_.ack_bytes);
    files_.push_back(std::make_unique<FileState>(std::move(name)));
    co_return static_cast<FileHandle>(files_.size() - 1);
  }

  /// One contiguous write: at most one OL pair per server, all servers in
  /// parallel; completes when the slowest server acknowledges.
  sim::Task<void> write_contiguous(FileHandle file, net::EndpointId client,
                                   std::uint64_t offset, std::uint64_t length) {
    const Extent one{offset, length};
    co_await write_list(file, client, std::span<const Extent>(&one, 1));
  }

  /// Native list I/O: every extent decomposed and grouped per server; one
  /// request per touched server carrying that server's whole OL list; all
  /// servers proceed in parallel.  The extents may live anywhere that
  /// outlives the call (vector, stack array).  With the cache on, one
  /// batched lease acquisition covers the whole list and every extent lands
  /// in the write-back cache — servers see nothing until eviction, sync,
  /// revocation, or close.
  sim::Task<void> write_list(FileHandle file, net::EndpointId client,
                             std::span<const Extent> extents) {
    if (cache_enabled()) {
      if (needs_grant(file, client, TokenMode::Write, extents))
        co_await grant_and_absorb(file, client, extents);
      else
        absorb_writes(file, client, extents);
      if (client_cache(client).needs_eviction())
        co_await drain_evictions(client);
      co_return;
    }
    co_await fan_out(RequestKind::Write, client, extents);
    record_writes(file, extents);
  }

  /// POSIX-style noncontiguous write: one fully-synchronous round trip per
  /// extent, in order — "the MPI_Write() call without optimization".  With
  /// the cache on, each extent checks (and pays for) its lease separately —
  /// the round-trip cadence that token contention punishes — but the data
  /// itself is absorbed write-back.  Only an extent that needs a grant
  /// awaits anything.
  sim::Task<void> write_posix(FileHandle file, net::EndpointId client,
                              std::span<const Extent> extents) {
    if (cache_enabled()) {
      // The spans are built in place: a named one would live across the
      // await and grow this frame, which every POSIX write allocates,
      // cached or not, into a larger frame-pool class.
      for (const Extent& extent : extents) {
        if (!needs_grant(file, client, TokenMode::Write, {&extent, 1}))
          absorb_writes(file, client, {&extent, 1});
        else
          co_await grant_and_absorb(file, client, {&extent, 1});
      }
      if (client_cache(client).needs_eviction())
        co_await drain_evictions(client);
      co_return;
    }
    const std::uint64_t strip = params_.layout.strip_size();
    for (const Extent& extent : extents) {
      const std::span<const Extent> one(&extent, 1);
      // The common case — an extent inside one strip — is one round trip
      // carrying one OL pair, awaited with no decomposition at all.  A
      // strip-crossing extent is awaited directly too when its strips all
      // sit on one server; only one spanning servers fans out.
      if (extent.length != 0 && extent.offset % strip + extent.length <= strip)
        co_await round_trip(RequestKind::Write,
                            params_.layout.server_of(extent.offset), client,
                            /*pairs=*/1, extent.length);
      else
        co_await fan_out(RequestKind::Write, client, one, /*await_lone=*/true);
      record_writes(file, one);
    }
  }

  /// Data-sieving write: each window containing holes is read back first
  /// (hole protection), then written as one contiguous transfer.  Only the
  /// real extents are recorded in the file image — the hole bytes rewrite
  /// the contents the pre-read fetched.  With the cache on this is
  /// `write_list`: absorption already coalesces, with no amplification and
  /// no read-modify-write.
  sim::Task<void> write_sieved(FileHandle file, net::EndpointId client,
                               std::span<const Extent> extents,
                               std::uint64_t buffer_bytes) {
    if (cache_enabled()) {
      co_await write_list(file, client, extents);
      co_return;
    }
    const SievePlan plan = plan_sieve(extents, buffer_bytes);
    sieve_.writes += plan.windows.size();
    sieve_.write_useful_bytes += plan.useful_bytes;
    sieve_.write_transferred_bytes += plan.transferred_bytes;
    for (const SieveWindow& window : plan.windows) {
      const Extent span{window.offset, window.length};
      if (window.holes != 0) {
        // Read-modify-write: fetch the window so its holes are written back
        // with their current contents.  PVFS2 offers no locking, so this
        // pre-read is the only protection the gaps get — see DESIGN.md §11
        // for the concurrency caveat this inherits from real ROMIO.
        ++sieve_.rmw_reads;
        sieve_.holes_protected += window.holes;
        co_await fan_out(RequestKind::Read, client,
                         std::span<const Extent>(&span, 1));
      }
      co_await fan_out(RequestKind::Write, client,
                       std::span<const Extent>(&span, 1));
    }
    // Only the caller's extents land in the image: the hole bytes rewrote
    // whatever the pre-read saw.
    record_writes(file, extents);
  }

  /// Read of a contiguous range: `read_list` of one extent.  Used by
  /// query-segmentation tools that stream database fragments from the file
  /// system.
  sim::Task<void> read_contiguous(FileHandle file, net::EndpointId client,
                                  std::uint64_t offset, std::uint64_t length) {
    const Extent one{offset, length};
    co_await read_list(file, client, std::span<const Extent>(&one, 1));
  }

  /// Native noncontiguous list read — the read twin of `write_list`: one
  /// request per touched server carrying only headers out, that server's
  /// data back, all in parallel.  With the cache on, read leases are
  /// acquired symmetrically with the write path (granule-precise spans,
  /// double-checked under the serialized token service), the cache is
  /// probed per extent, and only the missing pieces are fetched.
  sim::Task<void> read_list(FileHandle file, net::EndpointId client,
                            std::span<const Extent> extents) {
    FileState& state = file_state(file);
    for (const Extent& extent : extents) state.bytes_read += extent.length;
    if (!cache_enabled()) {
      co_await fan_out(RequestKind::Read, client, extents);
      co_return;
    }
    std::optional<sim::ResourceHold> hold;
    if (needs_grant(file, client, TokenMode::Read, extents))
      co_await grant_leases(file, client, TokenMode::Read, extents, hold);
    std::vector<Extent> missing;
    ClientCache& cache = client_cache(client);
    for (const Extent& extent : extents)
      cache.absorb_read(file, extent, missing);
    hold.reset();
    if (!missing.empty()) co_await fan_out(RequestKind::Read, client, missing);
    if (cache.needs_eviction()) co_await drain_evictions(client);
  }

  /// Data-sieving read (docs/IO_MODEL.md §4): the extent list is covered by
  /// contiguous windows of at most `buffer_bytes`; each window is one
  /// contiguous transfer (amplified by its holes) issued sequentially — the
  /// single client-side sieve buffer is reused per window.  With the cache
  /// on this is `read_list`.
  sim::Task<void> read_sieved(FileHandle file, net::EndpointId client,
                              std::span<const Extent> extents,
                              std::uint64_t buffer_bytes) {
    if (cache_enabled()) {
      co_await read_list(file, client, extents);
      co_return;
    }
    const SievePlan plan = plan_sieve(extents, buffer_bytes);
    file_state(file).bytes_read += plan.useful_bytes;
    sieve_.reads += plan.windows.size();
    sieve_.read_useful_bytes += plan.useful_bytes;
    sieve_.read_transferred_bytes += plan.transferred_bytes;
    for (const SieveWindow& window : plan.windows) {
      const Extent span{window.offset, window.length};
      co_await fan_out(RequestKind::Read, client,
                       std::span<const Extent>(&span, 1));
    }
  }

  /// MPI_File_sync: a flush request to every server, in parallel.  With the
  /// cache enabled, the client first writes back its dirty data for the
  /// file (one coalesced list write), then issues the server-side flush.
  sim::Task<void> sync(FileHandle file, net::EndpointId client) {
    if (cache_enabled()) {
      WritebackRun run;
      client_cache(client).flush_file(file, run);
      if (!run.extents.empty())
        co_await fan_out(RequestKind::Write, client, run.extents);
    }
    sim::WaitGroup pending(*scheduler_);
    for (std::uint32_t s = 0; s < servers_.size(); ++s)
      spawn_round_trip(RequestKind::Sync, s, client, /*pairs=*/0,
                       /*bytes=*/0, pending);
    co_await pending.wait();
  }

  /// Client-side sieve counters (published as `pfs.sieve.*` when used).
  [[nodiscard]] const SieveStats& sieve_stats() const noexcept {
    return sieve_;
  }

  [[nodiscard]] const FileImage& image(FileHandle file) const {
    S3A_REQUIRE(file < files_.size());
    return files_[file]->image;
  }
  [[nodiscard]] const std::string& file_name(FileHandle file) const {
    S3A_REQUIRE(file < files_.size());
    return files_[file]->name;
  }
  [[nodiscard]] const ServerStats& server_stats(std::uint32_t server) const {
    S3A_REQUIRE(server < servers_.size());
    return servers_[server]->stats;
  }
  [[nodiscard]] ServerStats aggregate_stats() const {
    ServerStats total;
    for (const auto& server : servers_) total += server->stats;
    return total;
  }

  /// Attaches (or detaches, with nullptr) the per-request observer.
  void set_observer(RequestObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Bytes read from a file so far (query-segmentation database streaming).
  [[nodiscard]] std::uint64_t bytes_read(FileHandle file) const {
    S3A_REQUIRE(file < files_.size());
    return files_[file]->bytes_read;
  }

  /// --- Client-side cache layer (DESIGN.md §10). --------------------------

  [[nodiscard]] bool cache_enabled() const noexcept {
    return params_.cache.enabled();
  }

  /// Cache/token counters summed over every client cache plus the token
  /// manager (`ServerStats`-style aggregation; published as `pfs.cache.*`).
  [[nodiscard]] CacheStats cache_stats() const {
    CacheStats total;
    for (const auto& cache : caches_)
      if (cache != nullptr) total += cache->stats();
    if (tokens_ != nullptr) tokens_->add_counters(total);
    return total;
  }

  /// The lease table, for tests and diagnostics (cache-enabled only).
  [[nodiscard]] const TokenManager& token_manager() const {
    S3A_REQUIRE(tokens_ != nullptr);
    return *tokens_;
  }

  /// Close-time flush: writes back every dirty block `client` still holds,
  /// drops its residency, and returns its leases with one metadata round
  /// trip.  No-op when the cache is disabled or the client never touched
  /// it.  Every client must call this before `shutdown` so no dirty data is
  /// lost (the runtimes hook it into rank teardown).
  sim::Task<void> release_client(net::EndpointId client) {
    if (!cache_enabled()) co_return;
    if (client >= caches_.size() || caches_[client] == nullptr) co_return;
    std::vector<WritebackRun> runs;
    caches_[client]->close_all(runs);
    for (const WritebackRun& run : runs)
      if (!run.extents.empty())
        co_await fan_out(RequestKind::Write, client, run.extents);
    tokens_->release_client(static_cast<std::uint32_t>(client));
    co_await network_->transfer(client, server_endpoint_base_,
                                params_.request_header_bytes);
    account_metadata_op();
    co_await scheduler_->delay(params_.metadata_op);
    co_await network_->transfer(server_endpoint_base_, client,
                                params_.ack_bytes);
  }

 private:
  /// What a server request does, coded as the observer reports it.
  enum class RequestKind : char { Write = 'w', Read = 'r', Sync = 's' };

  struct ServerRequest {
    RequestKind kind = RequestKind::Write;
    std::uint64_t pairs = 0;
    std::uint64_t bytes = 0;
    sim::Target done{};  ///< scheduled once the request is serviced
  };
  struct ActiveFault {
    ServerDegradation spec;
    bool stalled = false;  ///< one-shot stall already taken
  };
  struct Server {
    explicit Server(sim::Scheduler& scheduler) : queue(scheduler) {}
    sim::Channel<ServerRequest> queue;
    ServerStats stats;
    std::uint64_t dirty_bytes = 0;  ///< written since the last sync
    std::vector<ActiveFault> faults;
  };
  struct FileState {
    explicit FileState(std::string file_name) : name(std::move(file_name)) {}
    std::string name;
    FileImage image;
    std::uint64_t bytes_read = 0;
  };

  [[nodiscard]] FileState& file_state(FileHandle file) {
    S3A_REQUIRE(file < files_.size());
    return *files_[file];
  }

  void record_writes(FileHandle file, std::span<const Extent> extents) {
    FileImage& image = file_state(file).image;
    for (const Extent& extent : extents)
      image.record_write(extent.offset, extent.length);
  }

  [[nodiscard]] net::EndpointId server_endpoint(std::uint32_t server) const noexcept {
    return server_endpoint_base_ + server;
  }

  /// One request round trip to one server, as a step: header, OL pairs
  /// and — for a write — the data out; queue for service; the ack and — for
  /// a read — the data back.  The only code that enqueues server requests.
  /// Only the pair count and byte total cross the wire: the server models
  /// cost, not content.  Awaited (`round_trip`), it lives in the awaiting
  /// frame, starts at once with no scheduled event and resumes its caller
  /// inline as its last act.  Spawned (`spawn_round_trip`), it lives in a
  /// pooled block, starts at its own event, counts as a process and, done,
  /// marks its fan-out's latch and frees itself.
  class RoundTrip : public sim::Step, public sim::PoolAllocated {
   public:
    RoundTrip(Pfs& fs, RequestKind kind, std::uint32_t server,
              net::EndpointId client, std::uint64_t pairs,
              std::uint64_t bytes, sim::WaitGroup* fan_in = nullptr) noexcept
        : Step(&fire_stage),
          fs_(&fs),
          fan_in_(fan_in),
          pairs_(pairs),
          bytes_(bytes),
          client_(client),
          server_(server),
          kind_(kind) {}

    // Awaited: the stages run until one must wait, and the caller is
    // resumed inline once the ack is back.
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> caller) {
      then_ = caller;
      return !advance();
    }
    void await_resume() const noexcept {}

   private:
    enum class Stage : std::uint8_t { Out, Queue, Back, Done };

    bool advance() {
      net::Network& network = *fs_->network_;
      const PfsParams& params = fs_->params_;
      const net::EndpointId server = fs_->server_endpoint(server_);
      switch (stage_) {
        case Stage::Out:
          stage_ = Stage::Queue;
          if (!transfer_.start(
                  network, client_, server,
                  params.request_header_bytes +
                      params.pair_header_bytes * pairs_ +
                      (kind_ == RequestKind::Write ? bytes_ : 0),
                  this))
            return false;
          [[fallthrough]];
        case Stage::Queue:
          stage_ = Stage::Back;
          fs_->servers_[server_]->queue.push(
              ServerRequest{kind_, pairs_, bytes_, this});
          return false;  // the server schedules this step once serviced
        case Stage::Back:
          stage_ = Stage::Done;
          if (!transfer_.start(
                  network, server, client_,
                  params.ack_bytes + (kind_ == RequestKind::Read ? bytes_ : 0),
                  this))
            return false;
          [[fallthrough]];
        case Stage::Done:
          return true;
      }
      S3A_UNREACHABLE();
    }

    static void fire_stage(sim::Step& step) {
      auto& self = static_cast<RoundTrip&>(step);
      if (!self.advance()) return;
      if (self.fan_in_ == nullptr) {
        const sim::Target then = self.then_;
        then.resume();  // last act: the caller may end this round trip
        return;
      }
      sim::Scheduler& scheduler = *self.fs_->scheduler_;
      self.fan_in_->done();
      delete &self;
      scheduler.note_process_finished();
    }

    Pfs* fs_;
    sim::WaitGroup* fan_in_;  ///< spawned: the fan-out's latch
    std::uint64_t pairs_;
    std::uint64_t bytes_;
    net::EndpointId client_;
    std::uint32_t server_;
    RequestKind kind_;
    Stage stage_ = Stage::Out;
    sim::Target then_{};  ///< awaited: the caller
    net::Transfer transfer_;
  };

  /// One round trip, awaited: it starts at once, with no scheduled event.
  RoundTrip round_trip(RequestKind kind, std::uint32_t server,
                       net::EndpointId client, std::uint64_t pairs,
                       std::uint64_t bytes) noexcept {
    return RoundTrip(*this, kind, server, client, pairs, bytes);
  }

  /// One round trip, spawned (one event to start), marking `fan_in` done
  /// when its ack is back.
  void spawn_round_trip(RequestKind kind, std::uint32_t server,
                        net::EndpointId client, std::uint64_t pairs,
                        std::uint64_t bytes, sim::WaitGroup& fan_in) {
    fan_in.add();
    scheduler_->spawn(
        *new RoundTrip(*this, kind, server, client, pairs, bytes, &fan_in));
  }

  /// Tallies `extents` per server and sends one `kind` request carrying
  /// that server's OL list to every server touched, each as its own
  /// spawned round trip, and waits for all of them.  With `await_lone`, a
  /// lone touched server's round trip is awaited directly instead (the
  /// POSIX path's sequential cadence).  Every read of the shared tally
  /// happens before the first suspension, so concurrent fan-outs can share
  /// it; completion goes through one WaitGroup, so a fan-out allocates only
  /// its round trips' pooled blocks.
  /// Loops skip it for an empty list: a coroutine that finishes without
  /// suspending resumes its caller by a call, not a tail call, in -O0 and
  /// sanitizer builds, so a long run of them overflows the host stack.
  sim::Task<void> fan_out(RequestKind kind, net::EndpointId client,
                          std::span<const Extent> extents,
                          bool await_lone = false) {
    params_.layout.tally_by_server(extents, tally_);
    const auto touched = [](const ServerTally& t) { return t.pairs != 0; };
    const bool lone =
        await_lone && std::ranges::count_if(tally_, touched) == 1;
    sim::WaitGroup pending(*scheduler_);
    for (std::uint32_t s = 0; s < tally_.size(); ++s) {
      const ServerTally& tally = tally_[s];
      if (tally.pairs == 0) continue;
      if (lone) {
        co_await round_trip(kind, s, client, tally.pairs, tally.bytes);
        co_return;
      }
      spawn_round_trip(kind, s, client, tally.pairs, tally.bytes, pending);
    }
    co_await pending.wait();
  }

  /// Degradation active at `now`: one-shot stall (taken on the first request
  /// serviced at/after the fault start) plus a combined service multiplier.
  sim::Task<double> apply_degradations(Server& server) {
    double factor = 1.0;
    for (ActiveFault& fault : server.faults) {
      if (scheduler_->now() < fault.spec.from) continue;
      if (!fault.stalled) {
        fault.stalled = true;
        if (fault.spec.stall > 0) {
          co_await scheduler_->delay(fault.spec.stall);
          server.stats.busy += fault.spec.stall;
        }
      }
      factor *= fault.spec.service_factor;
    }
    co_return factor;
  }

  [[nodiscard]] static sim::Time degrade(sim::Time service,
                                         double factor) noexcept {
    if (factor == 1.0) return service;
    return sim::round_nearest(static_cast<double>(service) * factor);
  }

  /// Bookkeeping shared by both service paths; returns the service time.
  [[nodiscard]] sim::Time account_request(Server& server,
                                          const ServerRequest& request,
                                          double factor) {
    ServerStats& stats = server.stats;
    sim::Time service = 0;
    switch (request.kind) {
      case RequestKind::Sync:
        service =
            degrade(params_.disk.sync_service_time(server.dirty_bytes), factor);
        server.dirty_bytes = 0;
        ++stats.syncs;
        break;
      case RequestKind::Read:
        // Reads have their own cost knobs (defaulting to the write model)
        // and leave no dirty data.
        service = degrade(
            params_.disk.read_service_time(request.pairs, request.bytes),
            factor);
        ++stats.reads;
        stats.read_pairs += request.pairs;
        stats.read_bytes += request.bytes;
        break;
      case RequestKind::Write:
        service = degrade(
            params_.disk.write_service_time(request.pairs, request.bytes),
            factor);
        server.dirty_bytes += request.bytes;
        ++stats.requests;
        stats.pairs += request.pairs;
        stats.bytes += request.bytes;
        break;
    }
    stats.busy += service;
    return service;
  }

  /// Server process: FIFO service of queued requests.  The server sleeps
  /// through each service interval (an arithmetic busy-until clock would
  /// assign wakeup sequence numbers at enqueue time instead of completion
  /// time and flip same-instant tie-breaks, perturbing run results).  A
  /// healthy server skips the degradation coroutine entirely: with no
  /// faults it never suspends, so the fast path is observationally
  /// identical and saves one frame per serviced request.
  sim::Process server_loop(std::uint32_t index) {
    Server& server = *servers_[index];
    while (auto request = co_await server.queue.pop()) {
      const double factor =
          server.faults.empty() ? 1.0 : co_await apply_degradations(server);
      const sim::Time service = account_request(server, *request, factor);
      const sim::Time start = scheduler_->now();
      co_await scheduler_->delay(service);
      if (observer_ != nullptr)
        observer_->on_request_serviced(index, static_cast<char>(request->kind),
                                       request->pairs, request->bytes, start,
                                       scheduler_->now());
      scheduler_->schedule_now(request->done);
    }
  }

  /// --- Cache-layer glue (all private; DESIGN.md §10). --------------------

  /// Books one metadata operation on server 0 (the metadata server).
  /// Metadata time is tracked apart from `busy` — see ServerStats.
  void account_metadata_op() {
    Server& meta = *servers_[0];
    ++meta.stats.metadata_ops;
    meta.stats.metadata_busy += params_.metadata_op;
  }

  /// The lazily-created cache of one client endpoint.
  [[nodiscard]] ClientCache& client_cache(net::EndpointId client) {
    if (client >= caches_.size()) caches_.resize(client + 1);
    std::unique_ptr<ClientCache>& slot = caches_[client];
    if (slot == nullptr) slot = std::make_unique<ClientCache>(params_.cache);
    return *slot;
  }

  /// True when `client` lacks a `mode` lease `extents` need: the check
  /// before every cached batch, which lists no spans.
  [[nodiscard]] bool needs_grant(FileHandle file, net::EndpointId client,
                                 TokenMode mode,
                                 std::span<const Extent> extents) const {
    return tokens_->needs_grant(file, static_cast<std::uint32_t>(client), mode,
                                extents, params_.cache.token_bytes);
  }

  /// Lease acquisition once a caller found spans missing: takes the
  /// serialized token service into `hold`, re-checks, and grants what is
  /// still missing — one request to the metadata server with one OL pair
  /// per span, the metadata op, any revocation round trips, the ack.  The
  /// caller keeps `hold` until it has absorbed or probed, so no competing
  /// client can revoke in between.
  sim::Task<void> grant_leases(FileHandle file, net::EndpointId client,
                               TokenMode mode, std::span<const Extent> extents,
                               std::optional<sim::ResourceHold>& hold) {
    co_await token_service_->acquire();
    hold.emplace(*token_service_);
    const auto holder = static_cast<std::uint32_t>(client);
    std::vector<TokenManager::Span> spans;  // read across the awaits below
    tokens_->missing_spans(file, holder, mode, extents,
                           params_.cache.token_bytes, spans);
    if (spans.empty()) co_return;
    co_await network_->transfer(client, server_endpoint_base_,
                                params_.request_header_bytes +
                                    params_.pair_header_bytes * spans.size());
    account_metadata_op();
    co_await scheduler_->delay(params_.metadata_op);
    for (const TokenManager::Span& span : spans)
      for (const TokenManager::Revocation revocation :
           tokens_->acquire(file, holder, mode, span.first, span.second))
        co_await revoke_one(file, revocation);
    co_await network_->transfer(server_endpoint_base_, client,
                                params_.ack_bytes);
  }

  /// Absorbs a write batch whose leases `client` holds.
  void absorb_writes(FileHandle file, net::EndpointId client,
                     std::span<const Extent> extents) {
    ClientCache& cache = client_cache(client);
    for (const Extent& extent : extents) cache.absorb_write(file, extent);
    record_writes(file, extents);
  }

  /// Write leases, then cache absorption, for a batch that needs a grant.
  /// The token service hold lasts until the batch is absorbed.
  sim::Task<void> grant_and_absorb(FileHandle file, net::EndpointId client,
                                   std::span<const Extent> extents) {
    std::optional<sim::ResourceHold> hold;
    co_await grant_leases(file, client, TokenMode::Write, extents, hold);
    absorb_writes(file, client, extents);
  }

  /// One revocation round trip: metadata server → victim callback, the
  /// victim's dirty data in the range written back, victim → metadata ack.
  sim::Task<void> revoke_one(FileHandle file,
                             TokenManager::Revocation revocation) {
    const auto victim = static_cast<net::EndpointId>(revocation.client);
    co_await network_->transfer(server_endpoint_base_, victim,
                                params_.request_header_bytes);
    revoked_.clear();
    client_cache(victim).invalidate(file, revocation.begin, revocation.end,
                                    revoked_);
    if (!revoked_.extents.empty())
      co_await fan_out(RequestKind::Write, victim, revoked_.extents);
    co_await network_->transfer(victim, server_endpoint_base_,
                                params_.ack_bytes);
  }

  /// Flush-behind eviction loop: while over capacity, the LRU block's
  /// contiguous dirty run goes back to the servers in one list write.
  sim::Task<void> drain_evictions(net::EndpointId client) {
    ClientCache& cache = client_cache(client);
    WritebackRun run;
    while (cache.needs_eviction()) {
      run.clear();
      cache.evict_one(run);
      if (!run.extents.empty())
        co_await fan_out(RequestKind::Write, client, run.extents);
    }
  }

  sim::Scheduler* scheduler_;
  net::Network* network_;
  PfsParams params_;
  net::EndpointId server_endpoint_base_;
  RequestObserver* observer_ = nullptr;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<FileState>> files_;
  /// Per-server tally of the fan-out being sent, reset by each call.
  std::vector<ServerTally> tally_;
  /// Cache layer (null unless params_.cache.enabled()).  The token service
  /// is a capacity-1 resource serializing metadata-server lease traffic;
  /// client caches are indexed by endpoint.
  std::unique_ptr<TokenManager> tokens_;
  std::unique_ptr<sim::Resource> token_service_;
  std::vector<std::unique_ptr<ClientCache>> caches_;
  /// The writeback of the revocation in progress.  The token service hold
  /// runs revocations one at a time, so one buffer serves them all.
  WritebackRun revoked_;
  /// Data-sieving counters (client side, aggregate over all clients).
  SieveStats sieve_;
};

}  // namespace s3asim::pfs
