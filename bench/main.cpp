/// s3asim_bench [--jobs N] [SCENARIO...] — regenerates the paper's figures,
/// the ablations and the §3.3 workload table from one scenario table.  With
/// no names it runs every row in table order.  Each scenario writes its
/// CSVs and `BENCH_<scenario>.json` under results/ (S3ASIM_RESULTS_DIR
/// overrides); every CSV is byte-identical for any N.  The program exits
/// nonzero, naming each gate, if a win gate failed.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench/scenarios.hpp"

namespace {

using namespace s3asim::bench;

const Scenario kScenarios[] = {
    {"fig2_proc_scaling", fig2_proc_scaling,
     "Figure 2: overall time vs. processes, §4 headline at 96 procs"},
    {"fig2_scale_out", fig2_scale_out,
     "Ablation M: Figure 2 at 1024 and 4096 ranks, every strategy"},
    {"fig3_phase_mw_posix", fig3_phase_mw_posix,
     "Figure 3: phase breakdown vs. processes (MW, WW-POSIX)"},
    {"fig4_phase_list_coll", fig4_phase_list_coll,
     "Figure 4: phase breakdown vs. processes (WW-List, WW-Coll)"},
    {"fig5_speed_scaling", fig5_speed_scaling,
     "Figure 5: overall time vs. compute speed, §4 headline at 25.6"},
    {"fig6_phase_mw_posix", fig6_phase_mw_posix,
     "Figure 6: phase breakdown vs. compute speed (MW, WW-POSIX)"},
    {"fig7_phase_list_coll", fig7_phase_list_coll,
     "Figure 7: phase breakdown vs. compute speed (WW-List, WW-Coll)"},
    {"ablation_coll_list", ablation_coll_list,
     "Ablation A: two-phase collective vs. list-based collectives"},
    {"ablation_fs_scaling", ablation_fs_scaling,
     "Ablation C: file-system scaling (64 processes)"},
    {"ablation_memory", ablation_memory,
     "Ablation D: 8 GiB database vs. 1 GiB/node memory (WW-List)"},
    {"ablation_mw_nonblocking", ablation_mw_nonblocking,
     "Ablation E: MW with blocking vs. nonblocking master I/O"},
    {"ablation_resume", ablation_resume,
     "Ablation F: flush frequency vs. resumability (WW-List, 64 procs)"},
    {"ablation_hybrid", ablation_hybrid,
     "Ablation G: hybrid query/database segmentation (96 ranks)"},
    {"ablation_nn_files", ablation_nn_files,
     "Ablation H: file-per-process (N-N) vs. shared-file strategies"},
    {"ablation_faults", ablation_faults,
     "Ablation I: worker death vs. I/O strategy (32 procs)"},
    {"ablation_aggr", ablation_aggr,
     "Ablation J: worker-side aggregation (WW-Aggr) vs. WW-List, WW-Coll"},
    {"ablation_cache", ablation_cache,
     "Ablation K: client write-back cache with lease tokens (16 procs)"},
    {"serving_load", serving_load,
     "Ablation L: offered load vs. latency and goodput (8 procs)"},
    {"ablation_sieve", ablation_sieve,
     "Ablation N: read path: list I/O vs. data sieving vs. two-phase"},
    {"ablation_elastic", ablation_elastic,
     "Ablation O: speed-aware dispatch, elastic provisioning (9 procs)"},
    {"workload_report", workload_report,
     "The §3.3 workload: NT histogram, result counts, compute variance"},
};

int run(const Options& options) {
  std::vector<std::string> failed;
  for (const Scenario* scenario : options.scenarios) {
    std::printf("\n#### %s — %s\n", scenario->name, scenario->title);
    Runner runner(scenario->name, options.jobs);
    scenario->run(runner);
    const std::string json = runner.write_json();
    if (!json.empty()) std::printf("(bench json: %s)\n", json.c_str());
    for (const auto& gate : runner.failed_gates())
      failed.push_back(std::string(scenario->name) + ": " + gate);
  }
  for (const auto& gate : failed)
    std::fprintf(stderr, "s3asim_bench: GATE FAILED: %s\n", gate.c_str());
  return failed.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv, kScenarios));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "s3asim_bench: error: %s\n", error.what());
    return 1;
  }
}
