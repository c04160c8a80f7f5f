/// \file probes.cpp
/// Layer probes.  Each probe drives one layer's public API on a fresh
/// scheduler at the workload's shape and times only the scheduler run that
/// executes its call loop.  A layer's self time is the probe time minus
/// what the probes of the layers beneath it predict for the traffic the
/// probe made, bottom up: sim, then net, mpi and pfs, then mpiio, cache
/// and sieve over pfs.  `core.workload` has nothing beneath it.
///
/// Probes replay traffic shapes; they do not time calls inside a real run.
/// Fragments are dealt round-robin to workers where the real master
/// assigns them dynamically, so probe extents approximate, and never
/// replace, the counts the traced run measures exactly.

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/strategies/io_strategy.hpp"
#include "core/workload.hpp"
#include "mpi/comm.hpp"
#include "mpiio/file.hpp"
#include "net/network.hpp"
#include "perf.hpp"
#include "pfs/pfs.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "util/units.hpp"

namespace s3asim::perf {

namespace {

/// Host time of one probe's call loop and the lower-layer traffic it made.
struct Tally {
  double ns = 0.0;
  std::uint64_t calls = 0;  ///< calls of the probed layer
  std::uint64_t events = 0;
  std::uint64_t transfers = 0;
  std::uint64_t requests = 0;

  Tally& operator+=(const Tally& other) {
    ns += other.ns;
    calls += other.calls;
    events += other.events;
    transfers += other.transfers;
    requests += other.requests;
    return *this;
  }
};

std::uint32_t scaled(std::uint64_t count, double scale) {
  return static_cast<std::uint32_t>(
      std::max<double>(1.0, static_cast<double>(count) * scale));
}

double per_call(double ns, std::uint64_t calls) {
  return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
}

/// Runs `sched` to quiescence under a "loop <name>" span: the host time of
/// the spawned call loop and the events it retired.
Tally run_loop(sim::Scheduler& sched, SpanLog& spans, const std::string& name) {
  const std::uint64_t events = sched.events_processed();
  Tally tally;
  {
    const SpanLog::Scope span = spans.open("loop " + name);
    const Clock::time_point start = Clock::now();
    sched.run();
    tally.ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  }
  tally.events = sched.events_processed() - events;
  return tally;
}

/// A fresh model stack over `config`'s ranks and file system: one shared
/// file, opened through mpiio by every worker rank.
struct ProbeWorld {
  sim::Scheduler sched;
  net::Network network;
  mpi::Comm comm;
  pfs::Pfs fs;
  pfs::FileHandle handle = 0;
  std::unique_ptr<mpiio::File> file;

  explicit ProbeWorld(const core::SimConfig& config)
      : network(sched, config.nprocs + config.model.pfs.layout.server_count(),
                config.model.network),
        comm(sched, network, config.nprocs),
        fs(sched, network, config.nprocs, config.model.pfs) {
    sched.spawn(create(*this));
    sched.run();
    std::vector<mpi::Rank> workers(config.nprocs - 1);
    std::iota(workers.begin(), workers.end(), mpi::Rank{1});
    file = std::make_unique<mpiio::File>(sched, network, fs, comm, handle,
                                         std::move(workers), config.hints);
  }
  ProbeWorld(const ProbeWorld&) = delete;
  ProbeWorld& operator=(const ProbeWorld&) = delete;
  ~ProbeWorld() {
    fs.shutdown();
    sched.run();
  }

  static sim::Process create(ProbeWorld& world) {
    world.handle = co_await world.fs.create_file(0, "probe");
  }

  [[nodiscard]] std::uint64_t transfers() const {
    std::uint64_t total = 0;
    for (net::EndpointId id = 0; id < network.endpoint_count(); ++id)
      total += network.counters(id).messages_sent;
    return total;
  }
  [[nodiscard]] std::uint64_t requests() const {
    const pfs::ServerStats stats = fs.aggregate_stats();
    return stats.requests + stats.reads + stats.syncs;
  }

  /// `run_loop` plus the transfers and server requests the loop made.
  Tally run(SpanLog& spans, const std::string& name) {
    const std::uint64_t sent = transfers();
    const std::uint64_t serviced = requests();
    Tally tally = run_loop(sched, spans, name);
    tally.transfers = transfers() - sent;
    tally.requests = requests() - serviced;
    return tally;
  }
};

/// Per-query extents of each worker rank, fragments dealt round-robin.
struct Shape {
  std::vector<pfs::Extent> regions;                            ///< [query]
  std::vector<std::vector<std::vector<pfs::Extent>>> extents;  ///< [q][rank]
  std::vector<std::vector<std::uint32_t>> fragments;           ///< [rank]
};

Shape make_shape(const core::SimConfig& config, double scale) {
  const core::WorkloadModel model(config.workload);
  std::vector<std::uint32_t> queries(
      scaled(config.workload.query_count, scale));
  std::iota(queries.begin(), queries.end(), 0U);
  std::vector<std::uint64_t> bases;
  for (const std::uint32_t q : queries) bases.push_back(model.region_base(q));
  const core::OffsetService offsets(model, queries, bases);

  Shape shape;
  shape.fragments.resize(config.nprocs);
  for (std::uint32_t f = 0; f < config.workload.fragment_count; ++f)
    shape.fragments[1 + f % (config.nprocs - 1)].push_back(f);
  for (const std::uint32_t q : queries) {
    shape.regions.push_back({bases[q], model.query(q).total_bytes});
    auto& by_rank = shape.extents.emplace_back(config.nprocs);
    for (mpi::Rank rank = 1; rank < config.nprocs; ++rank)
      if (!shape.fragments[rank].empty())
        by_rank[rank] = offsets.worker_extents(q, shape.fragments[rank]);
  }
  return shape;
}

/// Fragment f of an interleaved database owns chunks f, f+F, f+2F, ...
std::vector<pfs::Extent> fragment_extents(const core::WorkloadConfig& workload,
                                          std::uint32_t fragment) {
  const std::uint64_t chunk = workload.db_chunk_bytes;
  std::vector<pfs::Extent> extents;
  for (std::uint64_t c = fragment; c * chunk < workload.database_bytes;
       c += workload.fragment_count)
    extents.push_back(
        {c * chunk, std::min(chunk, workload.database_bytes - c * chunk)});
  return extents;
}

// ---- Call loops (one detached process per rank). -------------------------

sim::Task<int> churn_step(sim::Scheduler& sched, sim::Time delay) {
  co_await sched.delay(delay);
  co_return 1;
}

sim::Process churn(sim::Scheduler& sched, std::uint32_t id,
                   std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i)
    (void)co_await churn_step(sched, 1 + static_cast<sim::Time>(id % 7));
}

sim::Process transfers(net::Network& network, net::EndpointId self,
                       net::EndpointId server, std::uint64_t count,
                       std::uint64_t bytes) {
  for (std::uint64_t i = 0; i < count; ++i)
    co_await network.transfer(self, i % 2 == 0 ? 0 : server, bytes);
}

sim::Process sender(mpi::Comm& comm, mpi::Rank self, std::uint64_t count,
                    std::uint64_t bytes) {
  for (std::uint64_t i = 0; i < count; ++i)
    co_await comm.send(self, 0, 1, bytes);
}

sim::Process receiver(mpi::Comm& comm, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i)
    (void)co_await comm.recv(0, mpi::kAnySource, 1);
}

enum class WriteMethod { Contiguous, Posix, List, Collective };

WriteMethod write_method(core::Strategy strategy) {
  switch (strategy) {
    case core::Strategy::MW:
      return WriteMethod::Contiguous;
    case core::Strategy::WWPosix:
      return WriteMethod::Posix;
    default:
      return WriteMethod::List;
  }
}

/// One worker's (or, for Contiguous, the master's) flushes of a config:
/// each query's extents, then a sync when the config syncs after writes.
sim::Process writer(ProbeWorld& world, const Shape& shape, mpi::Rank rank,
                    WriteMethod method, bool sync) {
  const net::EndpointId client = world.comm.endpoint_of(rank);
  for (std::size_t q = 0; q < shape.extents.size(); ++q) {
    const std::vector<pfs::Extent>& mine = shape.extents[q][rank];
    switch (method) {
      case WriteMethod::Contiguous:
        co_await world.fs.write_contiguous(world.handle, client,
                                           shape.regions[q].offset,
                                           shape.regions[q].length);
        break;
      case WriteMethod::Posix:
        if (mine.empty()) continue;
        co_await world.fs.write_posix(world.handle, client, mine);
        break;
      case WriteMethod::List:
        if (mine.empty()) continue;
        co_await world.fs.write_list(world.handle, client, mine);
        break;
      case WriteMethod::Collective:
        co_await world.file->write_at_all(rank, mine);
        break;
    }
    if (sync) co_await world.fs.sync(world.handle, client);
  }
  co_await world.fs.release_client(client);
}

enum class ReadMethod { List, Sieve, Contiguous };

/// One worker's reads: each extent list with list I/O or by sieving with
/// `sieve_buffer`, or (Contiguous) one contiguous read per extent.
sim::Process reader(ProbeWorld& world,
                    const std::vector<std::vector<pfs::Extent>>& reads,
                    mpi::Rank rank, ReadMethod method,
                    std::uint64_t sieve_buffer) {
  const net::EndpointId client = world.comm.endpoint_of(rank);
  for (const std::vector<pfs::Extent>& extents : reads) {
    switch (method) {
      case ReadMethod::List:
        co_await world.fs.read_list(world.handle, client, extents);
        break;
      case ReadMethod::Sieve:
        co_await world.fs.read_sieved(world.handle, client, extents,
                                      sieve_buffer);
        break;
      case ReadMethod::Contiguous:
        for (const pfs::Extent& extent : extents)
          co_await world.fs.read_contiguous(world.handle, client,
                                            extent.offset, extent.length);
        break;
    }
  }
}

/// Runs `once` three times and keeps the median host time (counts repeat
/// exactly).
template <typename Probe>
Tally median_of(Probe&& once) {
  std::vector<Tally> runs;
  for (int i = 0; i < 3; ++i) runs.push_back(once());
  std::sort(runs.begin(), runs.end(),
            [](const Tally& a, const Tally& b) { return a.ns < b.ns; });
  return runs[runs.size() / 2];
}

/// Runs `once` (a calibration run and a measured run, back to back) three
/// times and keeps the median cost it returns.  Both runs of a pair see
/// the same host load, so load that drifts between pairs does not enter
/// the difference a layer's self time is.
template <typename Pair>
double median_pair(Pair&& once) {
  std::array<double, 3> costs{};
  for (double& cost : costs) cost = once();
  std::sort(costs.begin(), costs.end());
  return costs[1];
}

/// The probes of one workload and the self costs they yield so far.
class Prober {
 public:
  Prober(const std::vector<PerfConfig>& configs, const PassCounts& counts,
         double scale, SpanLog& spans)
      : configs_(&configs), counts_(&counts), scale_(scale), spans_(&spans) {}

  LayerCosts run() {
    LayerCosts costs;
    costs.sim_ns_per_event = probe_sim();
    sim_ns_ = costs.sim_ns_per_event;
    costs.net_ns_per_transfer = probe_net();
    net_ns_ = costs.net_ns_per_transfer;
    costs.mpi_ns_per_message = probe_mpi();
    costs.pfs_ns_per_request = probe_pfs();
    costs.mpiio_ns_per_extent = probe_mpiio();
    costs.cache_ns_per_block_op = probe_cache();
    costs.sieve_ns_per_window = probe_sieve();
    costs.workload_ns_per_result = probe_workload();
    return costs;
  }

 private:
  /// What the sim and net probes predict for a tally's traffic.
  [[nodiscard]] double sim_and_net(const Tally& tally) const {
    return static_cast<double>(tally.events) * sim_ns_ +
           static_cast<double>(tally.transfers) * net_ns_;
  }
  [[nodiscard]] double pfs_self(const Tally& tally) const {
    return per_call(tally.ns - sim_and_net(tally), tally.requests);
  }
  /// Self time per call of a layer sitting on pfs costing `pfs_ns`.
  [[nodiscard]] double over_pfs(const Tally& tally, double pfs_ns) const {
    return per_call(tally.ns - sim_and_net(tally) -
                        static_cast<double>(tally.requests) * pfs_ns,
                    tally.calls);
  }

  /// Per-config traffic budget: the traced per-pass count spread over the
  /// configs, clamped so a probe stays well under a second.
  [[nodiscard]] std::uint64_t budget(std::uint64_t per_pass, std::uint64_t lo,
                                     std::uint64_t hi) const {
    const std::uint64_t per_config = per_pass / configs_->size();
    return scaled(std::clamp(per_config, lo, hi), scale_);
  }

  double probe_sim() {
    const SpanLog::Scope span = spans_->open("probe sim");
    const std::uint32_t procs = widest().nprocs;
    const std::uint64_t steps = std::max<std::uint64_t>(
        1, budget(counts_->events, 200'000, 2'000'000) / procs);
    const Tally tally = median_of([&] {
      sim::Scheduler sched;
      for (std::uint32_t id = 0; id < procs; ++id)
        sched.spawn(churn(sched, id, steps));
      return run_loop(sched, *spans_, "sim.churn");
    });
    return per_call(tally.ns, tally.events);
  }

  double probe_net() {
    const SpanLog::Scope span = spans_->open("probe net");
    const core::SimConfig& config = widest();
    const std::uint32_t senders = config.nprocs - 1;
    const std::uint64_t each = std::max<std::uint64_t>(
        1, budget(counts_->transfers, 20'000, 200'000) / senders);
    const std::uint64_t bytes =
        std::max<std::uint64_t>(1, counts_->transfer_bytes /
                                       std::max<std::uint64_t>(
                                           1, counts_->transfers));
    const Tally tally = median_of([&] {
      ProbeWorld world(config);
      const std::uint32_t servers = config.model.pfs.layout.server_count();
      for (mpi::Rank rank = 1; rank < config.nprocs; ++rank)
        world.sched.spawn(transfers(world.network, rank,
                                    config.nprocs + rank % servers, each,
                                    bytes));
      return world.run(*spans_, "net.transfer");
    });
    return per_call(tally.ns - static_cast<double>(tally.events) * sim_ns_,
                    tally.transfers);
  }

  double probe_mpi() {
    const SpanLog::Scope span = spans_->open("probe mpi");
    const core::SimConfig& config = widest();
    const std::uint32_t senders = config.nprocs - 1;
    const std::uint64_t each = std::max<std::uint64_t>(
        1, budget(counts_->messages, 10'000, 100'000) / senders);
    const std::uint64_t bytes =
        std::max<std::uint64_t>(1, counts_->message_bytes /
                                       std::max<std::uint64_t>(
                                           1, counts_->messages));
    const Tally tally = median_of([&] {
      ProbeWorld world(config);
      for (mpi::Rank rank = 1; rank < config.nprocs; ++rank)
        world.sched.spawn(sender(world.comm, rank, each, bytes));
      world.sched.spawn(receiver(world.comm, each * senders));
      Tally t = world.run(*spans_, "mpi.send_recv");
      t.calls = each * senders;
      return t;
    });
    return per_call(tally.ns - sim_and_net(tally), tally.calls);
  }

  /// Writes of every distinct (strategy write path, sync) shape in the
  /// workload, plus the database loads of configs that read one.
  double probe_pfs() {
    const SpanLog::Scope span = spans_->open("probe pfs");
    std::set<std::tuple<WriteMethod, bool, bool>> seen;
    Tally total;
    for (const PerfConfig& perf_config : *configs_) {
      core::SimConfig config = perf_config.config;
      config.model.pfs.cache = {};
      const WriteMethod method = write_method(config.strategy);
      const bool reads = interleaved(config.workload);
      if (!seen.insert({method, config.sync_after_write, reads}).second)
        continue;
      const Shape shape = make_shape(config, scale_);
      if (reads) {
        const auto fragments = fragment_reads(config, shape, 0);
        total += median_of([&] {
          return load(config, fragments, ReadMethod::List, "pfs.read_list");
        });
      }
      total += median_of([&] {
        return writes(config, shape, method, "pfs.write");
      });
    }
    return pfs_self(total);
  }

  /// Collective writes over pfs calibrated on contiguous writes of the
  /// same query regions: two-phase merges each round's extents into
  /// domain-contiguous aggregator writes.
  double probe_mpiio() {
    const SpanLog::Scope span = spans_->open("probe mpiio");
    core::SimConfig config = first_or_widest([](const core::SimConfig& c) {
      return core::is_collective(c.strategy);
    });
    config.model.pfs.cache = {};
    const Shape shape = make_shape(config, scale_);
    std::uint64_t extents = 0;
    for (const auto& by_rank : shape.extents)
      for (const auto& mine : by_rank) extents += mine.size();
    return median_pair([&] {
      const double pfs_ns = pfs_self(
          writes(config, shape, WriteMethod::Contiguous, "mpiio.regions"));
      Tally tally = writes(config, shape, WriteMethod::Collective,
                           "mpiio.write_at_all");
      tally.calls = extents;
      return over_pfs(tally, pfs_ns);
    });
  }

  /// The workload's cached write path with the cache on, over pfs
  /// calibrated on the same traffic with the cache off.
  double probe_cache() {
    const SpanLog::Scope span = spans_->open("probe cache");
    core::SimConfig config = first_or_widest(
        [](const core::SimConfig& c) { return c.model.pfs.cache.enabled(); });
    if (!config.model.pfs.cache.enabled()) {
      config.sync_after_write = false;
      config.model.pfs.cache.capacity_bytes = 64 * util::MiB;
    }
    const Shape shape = make_shape(config, scale_);
    const WriteMethod method = write_method(config.strategy);
    core::SimConfig off = config;
    off.model.pfs.cache = {};
    return median_pair([&] {
      const double pfs_ns = pfs_self(writes(off, shape, method, "cache.off"));
      ProbeWorld world(config);
      spawn_writers(world, config, shape, method);
      Tally on = world.run(*spans_, "cache.on");
      const pfs::CacheStats stats = world.fs.cache_stats();
      on.calls = stats.read_hits + stats.read_misses + stats.write_hits +
                 stats.write_misses;
      return over_pfs(on, pfs_ns);
    });
  }

  /// Sieved fragment loads over pfs calibrated on the same windows read
  /// contiguously: the difference is the sieve layer's own work.
  double probe_sieve() {
    const SpanLog::Scope span = spans_->open("probe sieve");
    core::SimConfig config = first_or_widest(
        [](const core::SimConfig& c) { return interleaved(c.workload); });
    if (!interleaved(config.workload)) {
      config.workload.database_bytes = 64 * util::MiB;
      config.workload.db_chunk_bytes = 4 * util::KiB;
    }
    const Shape shape = make_shape(config, scale_);
    const auto windows =
        fragment_reads(config, shape, config.hints.sieve_buffer_bytes);
    const auto fragments = fragment_reads(config, shape, 0);
    return median_pair([&] {
      const double pfs_ns = pfs_self(
          load(config, windows, ReadMethod::Contiguous, "sieve.windows"));
      return over_pfs(
          load(config, fragments, ReadMethod::Sieve, "sieve.read_sieved"),
          pfs_ns);
    });
  }

  double probe_workload() {
    const SpanLog::Scope span = spans_->open("probe core.workload");
    const Tally tally = median_of([&] {
      Tally t;
      const SpanLog::Scope loop = spans_->open("loop core.workload.generate");
      const Clock::time_point start = Clock::now();
      for (const PerfConfig& perf_config : *configs_) {
        const core::WorkloadConfig& workload = perf_config.config.workload;
        const core::WorkloadModel model(workload);
        const std::uint32_t queries = scaled(workload.query_count, scale_);
        for (std::uint32_t q = 0; q < queries; ++q) {
          t.calls += model.query(q).results.size();
          for (std::uint32_t f = 0; f < workload.fragment_count; ++f)
            (void)model.fragment_result_bytes(q, f);
        }
      }
      t.ns = std::chrono::duration<double, std::nano>(Clock::now() - start)
                 .count();
      return t;
    });
    return per_call(tally.ns, tally.calls);
  }

  // ---- Helpers. -----------------------------------------------------------

  [[nodiscard]] static bool interleaved(const core::WorkloadConfig& workload) {
    return workload.database_bytes > 0 && workload.db_chunk_bytes > 0 &&
           workload.db_chunk_bytes <
               workload.database_bytes / workload.fragment_count;
  }

  [[nodiscard]] const core::SimConfig& widest() const {
    const auto it = std::max_element(
        configs_->begin(), configs_->end(),
        [](const PerfConfig& a, const PerfConfig& b) {
          return a.config.nprocs < b.config.nprocs;
        });
    return it->config;
  }

  /// The first config matching `pred`, else the widest: a probe always
  /// runs at the workload's shape, even for a layer the workload skips.
  template <typename Pred>
  [[nodiscard]] core::SimConfig first_or_widest(Pred pred) const {
    for (const PerfConfig& config : *configs_)
      if (pred(config.config)) return config.config;
    return widest();
  }

  void spawn_writers(ProbeWorld& world, const core::SimConfig& config,
                     const Shape& shape, WriteMethod method) {
    if (method == WriteMethod::Contiguous) {
      world.sched.spawn(
          writer(world, shape, 0, method, config.sync_after_write));
      return;
    }
    for (mpi::Rank rank = 1; rank < config.nprocs; ++rank)
      world.sched.spawn(
          writer(world, shape, rank, method, config.sync_after_write));
  }

  Tally writes(const core::SimConfig& config, const Shape& shape,
               WriteMethod method, const std::string& name) {
    ProbeWorld world(config);
    spawn_writers(world, config, shape, method);
    return world.run(*spans_, name);
  }

  /// Each worker's fragment loads: the extent list of every fragment it
  /// holds or, with a `sieve_buffer`, the windows sieving would read.
  [[nodiscard]] static std::vector<std::vector<std::vector<pfs::Extent>>>
  fragment_reads(const core::SimConfig& config, const Shape& shape,
                 std::uint64_t sieve_buffer) {
    std::vector<std::vector<std::vector<pfs::Extent>>> reads(config.nprocs);
    for (mpi::Rank rank = 1; rank < config.nprocs; ++rank) {
      for (const std::uint32_t fragment : shape.fragments[rank]) {
        std::vector<pfs::Extent> extents =
            fragment_extents(config.workload, fragment);
        if (sieve_buffer == 0) {
          reads[rank].push_back(std::move(extents));
          continue;
        }
        std::vector<pfs::Extent>& windows = reads[rank].emplace_back();
        for (const pfs::SieveWindow& window :
             pfs::plan_sieve(extents, sieve_buffer).windows)
          windows.push_back({window.offset, window.length});
      }
    }
    return reads;
  }

  /// Every worker issues its reads once; calls = sieve windows.
  Tally load(const core::SimConfig& config,
             const std::vector<std::vector<std::vector<pfs::Extent>>>& reads,
             ReadMethod method, const std::string& name) {
    ProbeWorld world(config);
    for (mpi::Rank rank = 1; rank < config.nprocs; ++rank)
      world.sched.spawn(reader(world, reads[rank], rank, method,
                               config.hints.sieve_buffer_bytes));
    Tally t = world.run(*spans_, name);
    t.calls = world.fs.sieve_stats().reads;
    return t;
  }

  const std::vector<PerfConfig>* configs_;
  const PassCounts* counts_;
  double scale_;
  SpanLog* spans_;
  double sim_ns_ = 0.0;
  double net_ns_ = 0.0;
};

}  // namespace

LayerCosts run_probes(const std::vector<PerfConfig>& configs,
                      const PassCounts& counts, double scale, SpanLog& spans) {
  return Prober(configs, counts, scale, spans).run();
}

}  // namespace s3asim::perf
