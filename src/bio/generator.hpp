#pragma once

/// \file generator.hpp
/// Synthetic sequence-database generation.
///
/// The paper characterizes its workload by the NCBI NT database's length
/// histogram rather than its contents; this generator produces databases
/// and query sets with exactly such statistics.  The simulator models
/// fragmentation by count (`core::WorkloadModel`), so nothing here
/// partitions a database.

#include <cstdint>
#include <vector>

#include "bio/sequence.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace s3asim::bio {

struct GeneratorConfig {
  std::uint64_t seed = 42;
  /// Length distribution of generated sequences.
  util::BoxHistogram length_histogram = util::nt_database_histogram();
  /// GC content of the generated nucleotides in [0,1].
  double gc_content = 0.5;
};

/// Generates `count` random sequences with histogram-driven lengths.
[[nodiscard]] std::vector<Sequence> generate_sequences(
    const GeneratorConfig& config, std::uint64_t count,
    const std::string& id_prefix = "s3asim|synth");

/// Generates a query set the way the paper describes: `count` sequences
/// from the (truncated) NT query histogram.
[[nodiscard]] std::vector<Sequence> generate_queries(std::uint64_t seed,
                                                     std::uint64_t count);

/// Total residues across a set of sequences.
[[nodiscard]] std::uint64_t total_residues(const std::vector<Sequence>& sequences);

}  // namespace s3asim::bio
