/// The ablations of EXPERIMENTS.md: each asks a question the paper raises
/// (or leaves open) on the paper's workload.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenarios.hpp"
#include "core/membership.hpp"
#include "fault/fault.hpp"
#include "sim/time.hpp"
#include "util/units.hpp"

namespace s3asim::bench {
namespace {

using core::Strategy;
using util::GiB;
using util::KiB;
using util::MiB;

double fragment_hit_rate(const core::RunStats& stats) {
  std::uint64_t loads = 0, hits = 0;
  for (const auto& rank : stats.ranks) {
    loads += rank.fragment_loads;
    hits += rank.fragment_hits;
  }
  return loads + hits > 0
             ? static_cast<double>(hits) / static_cast<double>(loads + hits)
             : 0.0;
}

/// Closed-batch capacity in queries per simulated second.
double capacity_qps(std::uint32_t queries, const core::RunStats& stats) {
  return static_cast<double>(queries) / stats.wall_seconds;
}

}  // namespace

/// Ablation A — §5: "a collective I/O method implemented with list I/O and
/// forced synchronization may be a more efficient collective I/O method
/// than the default two phase I/O method in ROMIO".  WW-List with the
/// forced query barrier is the paper's own proxy measurement.
void ablation_coll_list(Runner& runner) {
  std::vector<Point> grid;
  for (const auto nprocs : kProcCounts) {
    const std::string n = " n=" + std::to_string(nprocs);
    grid.push_back({"two-phase" + n, paper(Strategy::WWColl, nprocs)});
    grid.push_back({"coll-list" + n, paper(Strategy::WWCollList, nprocs)});
    grid.push_back({"list+sync" + n, paper(Strategy::WWList, nprocs, true)});
  }
  emit(wall_table("", "ablation_coll_list.csv",
                  {"procs", "ww_coll", "ww_coll_list", "ww_list_sync"},
                  labels(kProcCounts), runner.run(grid)));
  std::printf("\nPaper evidence at 96 procs: WW-List+sync 40.24 s vs WW-Coll"
              "+sync 45.54 s — the list-based collective wins.\n");
}

/// Ablation C — §4: "A larger file system configuration with more I/O
/// bandwidth may have provided more scalable I/O performance."
void ablation_fs_scaling(Runner& runner) {
  const std::vector<std::uint32_t> servers{4, 8, 16, 32, 64};
  const std::vector<std::uint64_t> strips{16 * KiB, 32 * KiB, 64 * KiB,
                                          256 * KiB, 1 * MiB};
  const auto fs = [](Strategy strategy, std::uint32_t count,
                     std::uint64_t strip) {
    auto config = paper(strategy, 64);
    config.model.pfs.layout = pfs::Layout(strip, count);
    return Point{name(strategy) + " servers=" + std::to_string(count) +
                     " strip=" + std::to_string(strip),
                 config};
  };
  std::vector<Point> grid;
  for (const auto count : servers)
    for (const auto strategy :
         {Strategy::WWList, Strategy::WWPosix, Strategy::WWColl})
      grid.push_back(fs(strategy, count, 64 * KiB));
  std::vector<std::string> strip_labels;
  for (const auto strip : strips) {
    strip_labels.push_back(std::to_string(strip));
    for (const auto strategy : {Strategy::WWList, Strategy::WWPosix})
      grid.push_back(fs(strategy, 16, strip));
  }
  const auto runs = runner.run(grid);
  emit(wall_table("Server-count sweep (strip 64 KiB)",
                  "ablation_fs_servers.csv",
                  {"servers", "ww_list", "ww_posix", "ww_coll"},
                  labels(servers), runs));
  emit(wall_table("Strip-size sweep (16 servers)", "ablation_fs_strips.csv",
                  {"strip_bytes", "ww_list", "ww_posix"}, strip_labels,
                  std::span(runs).subspan(3 * servers.size())));
}

/// Ablation D — §1: "Super-linear speedup is possible when the sequence
/// database is larger than the processor memory by fitting the large
/// database into the aggregate memory of all processors."  An 8 GiB
/// database on 1 GiB nodes (WW-List): worker scaling, mpiBLAST-style
/// fragment affinity on/off, and a per-node memory sweep.
void ablation_memory(Runner& runner) {
  const std::vector<std::uint32_t> scaling{2, 4, 8, 16, 32, 64};
  const std::vector<std::uint32_t> affinity{8, 16, 32};
  const std::vector<std::uint64_t> memories{64 * MiB, 256 * MiB, 512 * MiB,
                                            1 * GiB,  4 * GiB,   8 * GiB};
  const auto db = [](const std::string& label, std::uint32_t nprocs,
                     std::uint64_t memory, bool fragment_affinity) {
    auto config = paper(Strategy::WWList, nprocs);
    config.workload.database_bytes = 8 * GiB;
    config.worker_memory_bytes = memory;
    config.fragment_affinity = fragment_affinity;
    return Point{label + " n=" + std::to_string(nprocs), config};
  };
  std::vector<Point> grid;
  for (const auto nprocs : scaling)
    grid.push_back(db("scaling", nprocs, GiB, true));
  for (const auto nprocs : affinity) {
    grid.push_back(db("affinity-on", nprocs, GiB, true));
    grid.push_back(db("affinity-off", nprocs, GiB, false));
  }
  for (const auto memory : memories)
    grid.push_back(
        db("memory=" + util::format_bytes(memory), 16, memory, true));
  const auto runs = runner.run(grid);
  auto next = runs.begin();

  Table speedup("", "ablation_memory_scaling.csv",
                {"procs", "wall_s", "speedup", "ideal", "db_read_bytes",
                 "hit_rate"});
  const double base_wall = next->wall_seconds;
  for (const auto nprocs : scaling) {
    const auto& stats = *next++;
    speedup.add(std::to_string(nprocs),
                {stats.wall_seconds, base_wall / stats.wall_seconds,
                 static_cast<double>(nprocs - 1) /
                     static_cast<double>(scaling.front() - 1),
                 static_cast<double>(stats.db_bytes_read),
                 fragment_hit_rate(stats)});
  }
  emit(speedup);

  Table on_off("mpiBLAST-style fragment affinity",
               "ablation_memory_affinity.csv",
               {"procs", "affinity_on_s", "affinity_off_s", "db_read_on_bytes",
                "db_read_off_bytes"});
  for (const auto nprocs : affinity) {
    const auto& on = *next++;
    const auto& off = *next++;
    on_off.add(std::to_string(nprocs),
               {on.wall_seconds, off.wall_seconds,
                static_cast<double>(on.db_bytes_read),
                static_cast<double>(off.db_bytes_read)});
  }
  emit(on_off);

  Table sweep("Memory sweep (16 procs)", "ablation_memory_sweep.csv",
              {"memory_bytes", "wall_s", "db_read_bytes"});
  for (const auto memory : memories) {
    const auto& stats = *next++;
    sweep.add(std::to_string(memory),
              {stats.wall_seconds, static_cast<double>(stats.db_bytes_read)});
  }
  emit(sweep);
}

/// Ablation E — §2.1: "While nonblocking I/O could reduce this overhead,
/// blocking I/O is commonly used in a MW strategy to avoid overloading the
/// memory of the master process."
void ablation_mw_nonblocking(Runner& runner) {
  std::vector<Point> grid;
  for (const auto nprocs : kProcCounts) {
    const std::string n = " n=" + std::to_string(nprocs);
    auto nonblocking = paper(Strategy::MW, nprocs);
    nonblocking.mw_nonblocking_io = true;
    grid.push_back({"MW blocking" + n, paper(Strategy::MW, nprocs)});
    grid.push_back({"MW nonblocking" + n, nonblocking});
    grid.push_back({"WW-List" + n, paper(Strategy::WWList, nprocs)});
  }
  emit(wall_table("", "ablation_mw_nonblocking.csv",
                  {"procs", "mw_blocking", "mw_nonblocking", "ww_list"},
                  labels(kProcCounts), runner.run(grid)));
  std::printf("\nNonblocking writes hide the master's I/O but not its "
              "result-gathering centralization — MW still trails WW-List.\n");
}

/// Ablation F — §2: "More frequently writing out the results also allows
/// users to resume a failed application run at the appropriate input
/// query."  Run time per flush policy against the expected recomputation
/// after a fail-stop at a uniformly random time: a resumed run restarts
/// from the last flushed batch, and batches are taken as evenly spaced
/// (the workload is homogeneous at this scale), so the expected loss is
/// half a batch's span.
void ablation_resume(Runner& runner) {
  const std::uint32_t queries = core::paper_config().workload.query_count;
  const std::vector<std::uint32_t> flushes{1, 2, 4, 10, queries};
  std::vector<Point> grid;
  for (const auto flush : flushes) {
    auto config = paper(Strategy::WWList, 64);
    config.queries_per_flush = flush;
    grid.push_back({"flush=" + std::to_string(flush), config});
  }
  const auto runs = runner.run(grid);
  Table table("", "ablation_resume.csv",
              {"queries_per_flush", "wall_s", "fs_requests", "expected_lost_s",
               "total_s"});
  for (std::size_t i = 0; i < flushes.size(); ++i) {
    const auto& stats = runs[i];
    const std::uint32_t batches = (queries + flushes[i] - 1) / flushes[i];
    const double lost = stats.wall_seconds / static_cast<double>(batches) / 2.0;
    table.add(std::to_string(flushes[i]),
              {stats.wall_seconds,
               static_cast<double>(stats.fs.server_requests), lost,
               stats.wall_seconds + lost});
  }
  emit(table);
}

/// Ablation G — §5: "hybrid query segmentation/database segmentation
/// strategies".  More teams relieve the master and collective bottlenecks
/// but raise per-worker database pressure once the database exceeds node
/// memory.
void ablation_hybrid(Runner& runner) {
  const std::vector<std::uint32_t> group_counts{1, 2, 4, 8};  // divide 96
  std::vector<Point> grid;
  for (const auto groups : group_counts) {
    for (const auto strategy :
         {Strategy::MW, Strategy::WWList, Strategy::WWColl}) {
      auto config = paper(strategy, 96);
      config.groups = groups;
      grid.push_back(
          {name(strategy) + " groups=" + std::to_string(groups), config});
    }
  }
  for (const auto groups : group_counts) {
    auto config = paper(Strategy::WWList, 96);
    config.groups = groups;
    config.workload.database_bytes = 8 * GiB;
    grid.push_back(
        {"WW-List 8GiB-db groups=" + std::to_string(groups), config});
  }
  const auto runs = runner.run(grid);
  emit(wall_table("Group-count sweep", "ablation_hybrid_groups.csv",
                  {"groups", "mw", "ww_list", "ww_coll"}, labels(group_counts),
                  runs));
  Table memory("With an 8 GiB database on 1 GiB nodes (WW-List)",
               "ablation_hybrid_memory.csv",
               {"groups", "wall_s", "db_read_bytes", "hit_rate"});
  for (std::size_t i = 0; i < group_counts.size(); ++i) {
    const auto& stats = runs[3 * group_counts.size() + i];
    memory.add(std::to_string(group_counts[i]),
               {stats.wall_seconds, static_cast<double>(stats.db_bytes_read),
                fragment_hit_rate(stats)});
  }
  emit(memory);
}

/// Ablation H — §5 "new I/O algorithms": file-per-process output.  Workers
/// append contiguously to private files; the master reads them all back
/// and list-writes the sorted output at the end of the run.
void ablation_nn_files(Runner& runner) {
  std::vector<Point> grid;
  for (const auto nprocs : kProcCounts)
    for (const auto strategy :
         {Strategy::WWFilePerProcess, Strategy::WWList, Strategy::MW})
      grid.push_back({name(strategy) + " n=" + std::to_string(nprocs),
                      paper(strategy, nprocs)});
  const auto runs = runner.run(grid);
  Table table("", "ablation_nn_files.csv",
              {"procs", "nn_total", "nn_merge", "ww_list", "mw"});
  for (std::size_t i = 0; i < std::size(kProcCounts); ++i) {
    const auto& nn = runs[3 * i];
    // The merge runs serially on the master at the end; the master does no
    // other I/O in this strategy, so its I/O phase is the merge.
    table.add(std::to_string(kProcCounts[i]),
              {nn.wall_seconds, nn.master_seconds(core::Phase::Io),
               runs[3 * i + 1].wall_seconds, runs[3 * i + 2].wall_seconds});
  }
  emit(table);
}

/// Ablation I — the cost of losing a worker: per strategy, kill worker 1 at
/// 25/50/75% of the failure-free wall; the master's detector retires it
/// and the survivors recompute its outstanding tasks.  Every run must
/// still verify its output file exactly.
void ablation_faults(Runner& runner) {
  const double fractions[] = {0.25, 0.5, 0.75};
  const auto config = [](Strategy strategy) {
    auto out = paper(strategy, 32);
    // The timeout must exceed the worst healthy search+flush cycle at this
    // scale or silence gets misread as death (WW-POSIX's per-extent
    // flushes are the long pole; 10 s is marginal at 16 procs).
    out.fault_detection_timeout = sim::seconds(15);
    return out;
  };

  // Stage 1: failure-free baselines.  A benign plan (slow factor 1 changes
  // nothing) keeps them on the master's event loop, as the faulted runs
  // are; MW under the closed-batch loop is measurably slower, which would
  // masquerade as a negative cost of death.
  std::vector<Point> baseline_grid;
  for (const auto strategy : kPaperStrategies) {
    auto benign = config(strategy);
    benign.fault.slowdowns.push_back(fault::WorkerSlow{1, 0, 1.0});
    baseline_grid.push_back({name(strategy) + " baseline", benign});
  }
  const auto baselines = runner.run(baseline_grid);

  // Stage 2: the kill times derive from the baselines.
  std::vector<Point> faulted_grid;
  for (std::size_t s = 0; s < baselines.size(); ++s) {
    for (const double fraction : fractions) {
      auto faulted = config(kPaperStrategies[s]);
      faulted.fault.kills.push_back(fault::WorkerKill{
          1, sim::seconds(baselines[s].wall_seconds * fraction)});
      faulted_grid.push_back({name(kPaperStrategies[s]) + " death@" +
                                  util::format_fixed(fraction * 100.0, 0) + "%",
                              faulted});
    }
  }
  const auto faulted = runner.run(faulted_grid);

  Table table("", "ablation_faults.csv",
              {"strategy", "death_fraction", "baseline_s", "faulted_s",
               "slowdown", "workers_died", "workers_retired",
               "tasks_reassigned", "repaired_bytes"});
  auto next = faulted.begin();
  for (std::size_t s = 0; s < baselines.size(); ++s) {
    for (const double fraction : fractions) {
      const auto& stats = *next++;
      table.add(name(kPaperStrategies[s]),
                {fraction, baselines[s].wall_seconds, stats.wall_seconds,
                 stats.wall_seconds / baselines[s].wall_seconds,
                 static_cast<double>(stats.faults.workers_died),
                 static_cast<double>(stats.faults.workers_retired),
                 static_cast<double>(stats.faults.tasks_reassigned),
                 static_cast<double>(stats.faults.repaired_bytes)});
    }
  }
  emit(table);
}

/// Ablation J — worker-side aggregation (WW-Aggr): fan-in-sized groups whose
/// first member coalesces the group's extents into one sorted list write
/// per flush, against WW-List and WW-Coll, then a fan-in sweep at 96
/// processes (0 = all workers in one group).
void ablation_aggr(Runner& runner) {
  const std::vector<std::uint32_t> fanins{2, 4, 8, 16, 0};
  const auto aggr = [](std::uint32_t nprocs, std::uint32_t fanin) {
    auto config = paper(Strategy::WWAggr, nprocs);
    config.aggregator_fanin = fanin;
    return config;
  };
  std::vector<Point> grid;
  for (const auto nprocs : kProcCounts) {
    const std::string n = " n=" + std::to_string(nprocs);
    grid.push_back({"WW-List" + n, paper(Strategy::WWList, nprocs)});
    grid.push_back({"WW-Coll" + n, paper(Strategy::WWColl, nprocs)});
    grid.push_back({"WW-Aggr" + n, aggr(nprocs, 4)});
  }
  for (const auto fanin : fanins)
    grid.push_back({"fanin=" + std::to_string(fanin), aggr(96, fanin)});
  const auto runs = runner.run(grid);
  emit(wall_table("", "ablation_aggr.csv",
                  {"procs", "ww_list", "ww_coll", "ww_aggr"},
                  labels(kProcCounts), runs));

  Table table("Fan-in sweep at 96 processes", "ablation_aggr_fanin.csv",
              {"fanin", "ww_aggr", "writes_issued"});
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    const auto& stats = runs[3 * std::size(kProcCounts) + i];
    std::uint64_t writes = 0;
    for (const auto& rank : stats.ranks) writes += rank.writes_issued;
    table.add(fanins[i] == 0 ? "all" : std::to_string(fanins[i]),
              {stats.wall_seconds, static_cast<double>(writes)});
  }
  emit(table);
}

/// Ablation K — client-side write-back caching with byte-range lease tokens
/// (DESIGN.md §10), sync-after-write off so the cache may absorb writes: a
/// capacity sweep (off / 16 MiB / 64 MiB per client, 1 MiB tokens), then a
/// token-granularity sweep at 64 MiB.  Coarser leases mean fewer grant
/// round trips but more false sharing between neighbouring writers.
/// Gate: at least two strategies see a >=1.3x speedup or a >=30% cut in
/// server requests with the cache on.
void ablation_cache(Runner& runner) {
  const Strategy strategies[] = {Strategy::MW, Strategy::WWPosix,
                                 Strategy::WWList, Strategy::WWAggr};
  const auto cached = [](Strategy strategy, std::uint64_t capacity,
                         std::uint64_t token) {
    auto config = paper(strategy, 16);
    config.sync_after_write = false;
    if (capacity != 0) {
      config.model.pfs.cache.capacity_bytes = capacity;
      config.model.pfs.cache.block_bytes = 64 * KiB;  // = strip
      config.model.pfs.cache.token_bytes = token;
    }
    return Point{name(strategy) + " cap=" + std::to_string(capacity / MiB) +
                     "MiB token=" + std::to_string(token / KiB) + "KiB",
                 config};
  };
  std::vector<Point> grid;
  for (const auto strategy : strategies)
    for (const std::uint64_t capacity : {0 * MiB, 16 * MiB, 64 * MiB})
      grid.push_back(cached(strategy, capacity, MiB));
  for (const auto strategy : strategies)
    for (const std::uint64_t token : {64 * KiB, MiB, 8 * MiB})
      grid.push_back(cached(strategy, 64 * MiB, token));
  const auto runs = runner.run(grid);
  auto next = runs.begin();

  Table capacity("", "ablation_cache.csv",
                 {"strategy", "off_s", "cap16_s", "cap64_s", "speedup",
                  "requests_off", "requests_cap64", "request_cut"});
  unsigned winners = 0;
  for (const auto strategy : strategies) {
    const auto& off = *next++;
    const auto& cap16 = *next++;
    const auto& cap64 = *next++;
    const auto requests_off = static_cast<double>(off.fs.server_requests);
    const auto requests_cap64 = static_cast<double>(cap64.fs.server_requests);
    const double speedup = cap64.wall_seconds > 0.0
                               ? off.wall_seconds / cap64.wall_seconds
                               : 0.0;
    const double cut =
        requests_off > 0.0 ? 1.0 - requests_cap64 / requests_off : 0.0;
    if (speedup >= 1.3 || cut >= 0.30) ++winners;
    capacity.add(name(strategy),
                 {off.wall_seconds, cap16.wall_seconds, cap64.wall_seconds,
                  speedup, requests_off, requests_cap64, cut});
  }
  emit(capacity);

  Table token("Token-granularity sweep at 64 MiB capacity",
              "ablation_cache_token.csv",
              {"strategy", "token64k_s", "token1m_s", "token8m_s", "grants_64k",
               "revocations_64k", "revocations_8m"});
  for (const auto strategy : strategies) {
    const auto& fine = *next++;
    const auto& mid = *next++;
    const auto& coarse = *next++;
    token.add(name(strategy),
              {fine.wall_seconds, mid.wall_seconds, coarse.wall_seconds,
               static_cast<double>(fine.cache.token_grants),
               static_cast<double>(fine.cache.token_revocations),
               static_cast<double>(coarse.cache.token_revocations)});
  }
  emit(token);

  runner.gate(winners >= 2,
              std::to_string(winners) +
                  " strategies reach a >=1.3x speedup or a >=30% request cut "
                  "with the cache on (need >=2)");
}

/// Ablation L — open-loop serving: per strategy, measure the closed-batch
/// capacity (queries / makespan), then offer Poisson arrivals at multiples
/// of it, through and past saturation.  The bounded admission queue makes
/// overload visible as shedding instead of unbounded queueing.
void serving_load(Runner& runner) {
  constexpr std::uint32_t kQueries = 40;
  const double multipliers[] = {0.25, 0.5, 1.0, 1.5, 2.0, 4.0};
  const auto base = [](Strategy strategy) {
    auto config = paper(strategy, 8);
    config.workload.query_count = kQueries;
    return config;
  };

  std::vector<Point> capacity_grid;
  for (const auto strategy : core::kAllStrategies)
    capacity_grid.push_back({name(strategy) + " capacity", base(strategy)});
  const auto capacities = runner.run(capacity_grid);

  std::vector<Point> load_grid;
  for (const auto& closed : capacities) {
    for (const double multiplier : multipliers) {
      auto config = base(closed.strategy);
      config.serving.arrival_rate_hz =
          capacity_qps(kQueries, closed) * multiplier;
      config.serving.admit_depth = 8;
      load_grid.push_back({name(closed.strategy) + " @" +
                               util::format_fixed(multiplier, 2) + "x",
                           config});
    }
  }
  const auto loads = runner.run(load_grid);

  Table table("", "serving_load.csv",
              {"strategy", "load_multiplier", "offered_qps", "offered", "shed",
               "completed", "goodput_qps", "latency_mean_s", "latency_p50_s",
               "latency_p95_s", "latency_p99_s"});
  auto next = loads.begin();
  for (const auto& closed : capacities) {
    for (const double multiplier : multipliers) {
      const auto& stats = *next++;
      const auto& overall = stats.serving.overall;
      table.add(name(closed.strategy),
                {multiplier, capacity_qps(kQueries, closed) * multiplier,
                 static_cast<double>(overall.offered),
                 static_cast<double>(overall.shed),
                 static_cast<double>(overall.completed),
                 stats.serving.goodput_qps, overall.mean_seconds,
                 overall.p50_seconds, overall.p95_seconds,
                 overall.p99_seconds});
    }
  }
  emit(table);
}

/// Ablation N — list I/O vs data sieving vs two-phase on the read path
/// (docs/IO_MODEL.md §4), over an interleaved database whose fragment loads
/// are strided extent lists.  Three shapes: read-heavy (large database,
/// small results), write-heavy (no database I/O, larger results), mixed.
/// List I/O runs once per shape; sieving (sieve_buffer) and two-phase
/// (cb_buffer_size) sweep 64 KiB / 512 KiB / 4 MiB buffers.  Gate:
/// sieving at its best buffer beats list I/O on the read-heavy shape.
void ablation_sieve(Runner& runner) {
  struct Shape {
    const char* name;
    std::uint64_t database_mib;  ///< 0 = no database I/O
    std::uint64_t chunk_bytes;
    std::uint32_t result_min;
    std::uint32_t result_max;
    std::uint32_t queries_per_flush;
  };
  const Shape shapes[] = {
      {"read-heavy", 32, 4 * KiB, 40, 80, 1},
      {"write-heavy", 0, 4 * KiB, 300, 600, 2},
      {"mixed", 8, 16 * KiB, 150, 300, 1},
  };
  struct Method {
    const char* name;
    std::uint64_t buffer_kib;  ///< 0 = list I/O, which has no buffer knob
  };
  std::vector<Method> methods{{"list", 0}};
  for (const char* method : {"sieve", "two-phase"})
    for (const std::uint64_t buffer_kib : {64u, 512u, 4096u})
      methods.push_back({method, buffer_kib});

  std::vector<Point> grid;
  for (const Shape& shape : shapes) {
    for (const Method& method : methods) {
      auto config = core::paper_config();
      config.nprocs = 9;
      config.workload.query_count = 6;
      config.workload.fragment_count = 8;
      config.workload.result_count_min = shape.result_min;
      config.workload.result_count_max = shape.result_max;
      config.workload.min_result_bytes = 256;
      config.workload.database_bytes = shape.database_mib * MiB;
      config.workload.db_chunk_bytes = shape.chunk_bytes;
      config.queries_per_flush = shape.queries_per_flush;
      config.read_method = mpiio::NoncontigMethod::ListIo;
      if (method.buffer_kib == 0) {
        config.strategy = Strategy::WWList;
      } else if (std::string(method.name) == "sieve") {
        config.strategy = Strategy::WWSieve;
        config.read_method = mpiio::NoncontigMethod::Sieve;
        config.hints.sieve_buffer_bytes = method.buffer_kib * KiB;
      } else {
        config.strategy = Strategy::WWColl;
        config.hints.cb_buffer_size = method.buffer_kib * KiB;
      }
      grid.push_back({std::string(shape.name) + " " + method.name + " buf=" +
                          std::to_string(method.buffer_kib) + "KiB",
                      config});
    }
  }
  const auto runs = runner.run(grid);

  Table table("", "ablation_sieve.csv",
              {"shape", "method", "buffer_kib", "wall_s", "db_read_mib",
               "sieve_windows", "amplified_mib", "rmw_reads"});
  double list_read_heavy = 0.0;
  double best_sieve_read_heavy = 0.0;
  auto next = runs.begin();
  for (const Shape& shape : shapes) {
    for (const Method& method : methods) {
      const auto& stats = *next++;
      const auto& sieve = stats.sieve;
      const double amplified_mib =
          static_cast<double>(
              (sieve.read_transferred_bytes - sieve.read_useful_bytes) +
              (sieve.write_transferred_bytes - sieve.write_useful_bytes)) /
          static_cast<double>(MiB);
      table.rows.push_back(
          {shape.name, method.name, std::to_string(method.buffer_kib),
           util::format_fixed(stats.wall_seconds, 6),
           util::format_fixed(static_cast<double>(stats.db_bytes_read) /
                                  static_cast<double>(MiB),
                              6),
           std::to_string(sieve.reads + sieve.writes),
           util::format_fixed(amplified_mib), std::to_string(sieve.rmw_reads)});
      if (std::string(shape.name) != "read-heavy") continue;
      if (method.buffer_kib == 0)
        list_read_heavy = stats.wall_seconds;
      else if (std::string(method.name) == "sieve")
        best_sieve_read_heavy =
            best_sieve_read_heavy == 0.0
                ? stats.wall_seconds
                : std::min(best_sieve_read_heavy, stats.wall_seconds);
    }
  }
  emit(table);

  runner.gate(best_sieve_read_heavy < list_read_heavy,
              "on the read-heavy shape, sieving at its best buffer takes " +
                  util::format_fixed(best_sieve_read_heavy, 3) +
                  " s against list I/O's " +
                  util::format_fixed(list_read_heavy, 3) +
                  " s (sieving must be faster)");
}

/// Ablation O — heterogeneous speed classes and elastic provisioning
/// (DESIGN.md §12), 9 processes.  Part 1, closed batch: speed-aware
/// dispatch (LPT with a tail guard) vs size-blind dispatch on standard:1x
/// and accel:4x workers mixed 3:1.  Part 2, a bursty trace replayed per
/// strategy against three provisioning arms: static-peak (8 workers all
/// run), static-min (4 workers) and elastic (4 workers plus standbys the
/// autoscaler summons against admission-queue depth and drains when it
/// empties).  Only membership-tolerant strategies take part 2: WW-Coll,
/// WW-CollList and WW-Aggr pin their collectives to a fixed worker set.
/// Gate: elastic reaches static-peak's p99 within 10% at lower
/// worker-seconds for at least two strategies.
void ablation_elastic(Runner& runner) {
  constexpr std::uint32_t kProcs = 9;
  constexpr std::uint32_t kMinWorkers = 4;
  constexpr std::uint32_t kQueries = 42;
  const Strategy hetero[] = {Strategy::WWList, Strategy::WWPosix,
                             Strategy::MW};
  const Strategy tolerant[] = {Strategy::WWList, Strategy::WWPosix,
                               Strategy::WWFilePerProcess, Strategy::MW};

  // Stage 1: part 1, and each tolerant strategy's closed-batch capacity at
  // peak size — the yardstick its bursty trace scales from.
  std::vector<Point> grid;
  for (const auto strategy : hetero) {
    for (const bool aware : {false, true}) {
      auto config = paper(strategy, kProcs);
      config.membership.classes = core::parse_worker_classes(
          "standard:speed=1,count=3|accel:speed=4,count=1");
      config.membership.speed_aware = aware;
      grid.push_back({name(strategy) + (aware ? " aware" : " blind"), config});
    }
  }
  for (const auto strategy : tolerant) {
    auto config = paper(strategy, kProcs);
    config.workload.query_count = kQueries;
    grid.push_back({name(strategy) + " capacity", config});
  }
  const auto stage1 = runner.run(grid);

  // Stage 2: the three arms per strategy on one trace: a trickle at 25% of
  // capacity, a burst at 200% for half the queries, a trickle again.  The
  // burst overloads even static-peak, so the question is whether the
  // elastic arm's ramp-up stays small against the queueing both share.
  struct Arm {
    const char* name;
    std::uint32_t procs;
    bool elastic;
  };
  const Arm arms[] = {{"static-peak", kProcs, false},
                      {"static-min", kMinWorkers + 1, false},
                      {"elastic", kProcs, true}};
  grid.clear();
  for (std::size_t s = 0; s < std::size(tolerant); ++s) {
    const double qps =
        capacity_qps(kQueries, stage1[2 * std::size(hetero) + s]);
    std::vector<std::pair<double, std::uint32_t>> trace;
    double t = 0.0;
    for (std::uint32_t q = 0; q < kQueries; ++q) {
      const bool burst = q >= kQueries / 3 && q < kQueries / 3 + kQueries / 2;
      t += 1.0 / (qps * (burst ? 2.0 : 0.25));
      trace.emplace_back(t, 0);
    }
    for (const Arm& arm : arms) {
      auto config = paper(tolerant[s], arm.procs);
      config.workload.query_count = kQueries;
      config.serving.trace_arrivals = trace;
      config.serving.admit_depth = 64;
      if (arm.elastic) {
        config.membership.elastic = true;
        config.membership.min_workers = kMinWorkers;
        config.membership.autoscale_target = 2.0;
        config.membership.autoscale_cooldown = sim::seconds(0.5);
      }
      grid.push_back({name(tolerant[s]) + " " + arm.name, config});
    }
  }
  const auto served = runner.run(grid);

  Table table("", "ablation_elastic.csv",
              {"label", "wall_s", "p99_s", "completed", "shed",
               "worker_seconds", "peak_active", "joins", "drains"});
  for (std::size_t i = 0; i < 2 * std::size(hetero); ++i) {
    const auto& run = stage1[i];
    table.add(name(hetero[i / 2]) + (i % 2 == 1 ? "/aware" : "/blind"),
              {run.wall_seconds, 0.0, 0.0, 0.0, run.membership.worker_seconds,
               static_cast<double>(run.membership.peak_active), 0.0, 0.0});
  }
  unsigned elastic_wins = 0;
  auto next = served.begin();
  for (const auto strategy : tolerant) {
    double peak_p99 = 0.0, peak_worker_s = 0.0;
    for (const Arm& arm : arms) {
      const auto& stats = *next++;
      const auto& overall = stats.serving.overall;
      // Static arms keep procs - 1 workers active the whole run; elastic
      // arms report the registry's measured active spans.
      const double worker_s =
          arm.elastic ? stats.membership.worker_seconds
                      : static_cast<double>(arm.procs - 1) * stats.wall_seconds;
      if (!arm.elastic && arm.procs == kProcs) {
        peak_p99 = overall.p99_seconds;
        peak_worker_s = worker_s;
      } else if (arm.elastic && overall.p99_seconds <= peak_p99 * 1.10 &&
                 worker_s < peak_worker_s) {
        ++elastic_wins;
      }
      table.add(name(strategy) + "/" + arm.name,
                {stats.wall_seconds, overall.p99_seconds,
                 static_cast<double>(overall.completed),
                 static_cast<double>(overall.shed), worker_s,
                 static_cast<double>(arm.elastic ? stats.membership.peak_active
                                                 : arm.procs - 1),
                 static_cast<double>(stats.membership.joins),
                 static_cast<double>(stats.membership.drains)});
    }
  }
  emit(table);

  runner.gate(elastic_wins >= 2,
              "elastic matches static-peak p99 (within 10%) at lower "
              "worker-seconds for " +
                  std::to_string(elastic_wins) + " of " +
                  std::to_string(std::size(tolerant)) +
                  " strategies (need 2)");
}

}  // namespace s3asim::bench
