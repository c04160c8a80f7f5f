/// Demonstrates S3aSim's configurability (§3: total fragments, query count,
/// box histograms, result counts, compute speeds, hints, flush policy...).
/// Builds a protein-sized workload from a user-defined histogram, derives a
/// second histogram empirically from generated FASTA data, and contrasts
/// per-query flushing with mpiBLAST-1.2-style write-at-end.

#include <cstdio>
#include <vector>

#include "bio/fasta.hpp"
#include "bio/generator.hpp"
#include "core/fasta_workload.hpp"
#include "core/simulation.hpp"
#include "util/histogram.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace s3asim;

  // --- A custom box histogram: short protein-like sequences. --------------
  const util::BoxHistogram protein_lengths{
      {60, 200, 0.35}, {200, 600, 0.45}, {600, 2'000, 0.18},
      {2'000, 10'000, 0.02}};
  std::printf("custom database histogram:\n%s\n",
              protein_lengths.describe().c_str());

  // --- Or derive one empirically from real (generated) sequences. ---------
  bio::GeneratorConfig generator;
  generator.seed = 11;
  generator.length_histogram = protein_lengths;
  const auto sequences = bio::generate_sequences(generator, 2'000, "prot");
  std::vector<std::uint64_t> lengths;
  lengths.reserve(sequences.size());
  for (const auto& sequence : sequences) lengths.push_back(sequence.length());
  const auto empirical = util::build_histogram(lengths, 12);
  std::printf("empirical histogram rebuilt from %zu generated sequences "
              "(mean %s vs source mean %s)\n\n",
              sequences.size(),
              util::format_bytes(static_cast<std::uint64_t>(empirical.mean())).c_str(),
              util::format_bytes(static_cast<std::uint64_t>(protein_lengths.mean())).c_str());

  // --- Configure a simulation around it. -----------------------------------
  auto config = core::paper_config();
  config.nprocs = 24;
  config.strategy = core::Strategy::WWList;
  config.workload.query_count = 40;
  config.workload.fragment_count = 64;
  config.workload.database_histogram = empirical;
  config.workload.query_histogram = protein_lengths;
  config.workload.result_count_min = 300;
  config.workload.result_count_max = 900;
  config.workload.min_result_bytes = 256;

  util::TextTable table({"Flush policy", "Wall (s)", "FS requests", "Syncs",
                         "Output"});
  bool exact = true;
  for (const std::uint32_t flush :
       {1u, 5u, config.workload.query_count /* write-at-end */}) {
    config.queries_per_flush = flush;
    const auto stats = core::run_simulation(config);
    exact = exact && stats.file_exact;
    const std::string label =
        flush == 1 ? "every query"
                   : (flush == config.workload.query_count
                          ? "at end (mpiBLAST 1.2 style)"
                          : "every " + std::to_string(flush) + " queries");
    table.add_row({label, util::format_fixed(stats.wall_seconds),
                   std::to_string(stats.fs.server_requests),
                   std::to_string(stats.fs.server_syncs),
                   util::format_bytes(stats.output_bytes) +
                       (stats.file_exact ? " ok" : " BAD")});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nLess frequent flushing trades failure-resumability (§2) for "
              "fewer, larger I/O operations.\n");

  // --- Deriving a workload from real FASTA files (the paper's own method:
  //     it measured the NT database's histogram, §3.3). --------------------
  const std::string db_path = "custom_workload_db.fa";
  const std::string query_path = "custom_workload_queries.fa";
  bio::write_fasta_file(db_path, sequences);
  bio::write_fasta_file(query_path, bio::generate_queries(99, 10));

  auto fasta_config = core::paper_config();
  fasta_config.nprocs = 24;
  fasta_config.workload =
      core::workload_from_fasta(db_path, query_path, fasta_config.workload);
  fasta_config.workload.result_count_min = 200;
  fasta_config.workload.result_count_max = 400;
  fasta_config.worker_memory_bytes = fasta_config.workload.database_bytes / 8;
  const auto fasta_stats = core::run_simulation(fasta_config);
  std::printf("\nFASTA-derived workload: %u queries, database %s on disk "
              "(streamed %s during the run), wall %.2f s, %s\n",
              fasta_config.workload.query_count,
              util::format_bytes(fasta_config.workload.database_bytes).c_str(),
              util::format_bytes(fasta_stats.db_bytes_read).c_str(),
              fasta_stats.wall_seconds,
              fasta_stats.file_exact ? "verified" : "VERIFICATION FAILED");
  std::remove(db_path.c_str());
  std::remove(query_path.c_str());
  return exact && fasta_stats.file_exact ? 0 : 1;
}
