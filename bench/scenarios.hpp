#pragma once

/// \file scenarios.hpp
/// The bodies of the scenario table's rows (bench/main.cpp) and the paper
/// setup they share.  Absolute seconds are model-calibrated; the shapes are
/// the reproduction target (DESIGN.md §3, EXPERIMENTS.md).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "core/config.hpp"

namespace s3asim::bench {

/// The four strategies of the paper, in presentation order.
inline constexpr core::Strategy kPaperStrategies[] = {
    core::Strategy::MW, core::Strategy::WWPosix, core::Strategy::WWList,
    core::Strategy::WWColl};

/// The process counts of the paper's first suite (§3.3: "2 to 96").
inline constexpr std::uint32_t kProcCounts[] = {2, 4, 8, 16, 32, 48, 64, 96};

/// paper_config() with the strategy, process count and query sync set.
[[nodiscard]] inline core::SimConfig paper(core::Strategy strategy,
                                           std::uint32_t nprocs,
                                           bool sync = false) {
  auto config = core::paper_config();
  config.strategy = strategy;
  config.nprocs = nprocs;
  config.query_sync = sync;
  return config;
}

[[nodiscard]] inline std::string name(core::Strategy strategy) {
  return core::strategy_name(strategy);
}

/// The values as table labels.
[[nodiscard]] std::vector<std::string> labels(
    std::span<const std::uint32_t> values);

/// A table of simulated makespans: row i is `x_labels[i]` followed by the
/// wall seconds of the next `header.size() - 1` runs, in grid order.
[[nodiscard]] Table wall_table(std::string title, std::string csv,
                               std::vector<std::string> header,
                               const std::vector<std::string>& x_labels,
                               std::span<const core::RunStats> runs);

void fig2_proc_scaling(Runner& runner);
void fig2_scale_out(Runner& runner);
void fig3_phase_mw_posix(Runner& runner);
void fig4_phase_list_coll(Runner& runner);
void fig5_speed_scaling(Runner& runner);
void fig6_phase_mw_posix(Runner& runner);
void fig7_phase_list_coll(Runner& runner);
void workload_report(Runner& runner);

void ablation_coll_list(Runner& runner);
void ablation_fs_scaling(Runner& runner);
void ablation_memory(Runner& runner);
void ablation_mw_nonblocking(Runner& runner);
void ablation_resume(Runner& runner);
void ablation_hybrid(Runner& runner);
void ablation_nn_files(Runner& runner);
void ablation_faults(Runner& runner);
void ablation_aggr(Runner& runner);
void ablation_cache(Runner& runner);
void serving_load(Runner& runner);
void ablation_sieve(Runner& runner);
void ablation_elastic(Runner& runner);

}  // namespace s3asim::bench
