/// \file workloads.cpp
/// The four benchmark workloads.  Each is a fixed list of configs built on
/// `paper_config()`; README.md says why each was chosen and which layers
/// it stresses.  Every config runs the serial engine with no faults,
/// serving or elastic membership, so no workload reaches `fault`, `bio` or
/// the parallel engine.

#include <initializer_list>
#include <stdexcept>

#include "perf.hpp"
#include "util/units.hpp"

namespace s3asim::perf {

namespace {

using core::Strategy;

core::SimConfig base(std::uint32_t nprocs, Strategy strategy) {
  core::SimConfig config = core::paper_config();
  config.nprocs = nprocs;
  config.strategy = strategy;
  return config;
}

std::string label(const core::SimConfig& config, const char* suffix) {
  return std::string(core::strategy_name(config.strategy)) + "/" +
         std::to_string(config.nprocs) + "/" + suffix;
}

/// Each strategy with query sync off, then on.
std::vector<PerfConfig> sync_pairs(std::uint32_t nprocs,
                                   std::initializer_list<Strategy> strategies,
                                   std::uint32_t query_count) {
  std::vector<PerfConfig> configs;
  for (const Strategy strategy : strategies) {
    for (const bool sync : {false, true}) {
      core::SimConfig config = base(nprocs, strategy);
      config.workload.query_count = query_count;
      config.query_sync = sync;
      configs.push_back({label(config, sync ? "sync" : "nosync"), config});
    }
  }
  return configs;
}

/// The interleaved-database read shape: fragment loads are strided extent
/// lists, so `read_method` picks list I/O or data sieving.
core::SimConfig interleaved_db(Strategy strategy) {
  core::SimConfig config = base(17, strategy);
  config.workload.query_count = 48;
  config.workload.fragment_count = 16;
  config.workload.result_count_min = 40;
  config.workload.result_count_max = 80;
  config.workload.min_result_bytes = 256;
  config.workload.database_bytes = 64 * util::MiB;
  config.workload.db_chunk_bytes = 4 * util::KiB;
  return config;
}

core::SimConfig cached(Strategy strategy) {
  core::SimConfig config = base(16, strategy);
  config.sync_after_write = false;
  config.model.pfs.cache.capacity_bytes = 64 * util::MiB;
  config.model.pfs.cache.block_bytes = 64 * util::KiB;
  config.model.pfs.cache.token_bytes = util::MiB;
  return config;
}

std::vector<PerfConfig> read_cache() {
  core::SimConfig list = interleaved_db(Strategy::WWList);
  list.read_method = mpiio::NoncontigMethod::ListIo;
  core::SimConfig sieve = interleaved_db(Strategy::WWSieve);
  sieve.read_method = mpiio::NoncontigMethod::Sieve;
  sieve.hints.sieve_buffer_bytes = 4 * util::MiB;
  const core::SimConfig posix = cached(Strategy::WWPosix);
  const core::SimConfig mw = cached(Strategy::MW);
  return {{label(list, "read-list"), list},
          {label(sieve, "read-sieve"), sieve},
          {label(posix, "cache"), posix},
          {label(mw, "cache"), mw}};
}

std::vector<PerfConfig> scale_1024() {
  std::vector<PerfConfig> configs;
  for (const Strategy strategy :
       {Strategy::MW, Strategy::WWPosix, Strategy::WWList}) {
    const core::SimConfig config = base(1024, strategy);
    configs.push_back({label(config, "nosync"), config});
  }
  return configs;
}

}  // namespace

std::vector<PerfConfig> workload_configs(const std::string& name,
                                         std::uint64_t seed) {
  std::vector<PerfConfig> configs;
  if (name == "paper-ww96")
    configs = sync_pairs(
        96, {Strategy::WWPosix, Strategy::WWList, Strategy::WWColl}, 20);
  else if (name == "mw-contig")
    configs = sync_pairs(96, {Strategy::MW}, 100);
  else if (name == "scale-1024")
    configs = scale_1024();
  else if (name == "read-cache")
    configs = read_cache();
  else
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected paper-ww96, mw-contig, "
                                "scale-1024 or read-cache)");
  // One pass covers as many workload draws as it has configs, so the work
  // per pass varies less from seed to seed than one draw's result count.
  for (std::size_t i = 0; i < configs.size(); ++i)
    configs[i].config.workload.seed = seed + i;
  return configs;
}

}  // namespace s3asim::perf
