#include "bio/generator.hpp"

#include <string>
#include <utility>

#include "util/require.hpp"

namespace s3asim::bio {

std::vector<Sequence> generate_sequences(const GeneratorConfig& config,
                                         std::uint64_t count,
                                         const std::string& id_prefix) {
  S3A_REQUIRE(config.gc_content >= 0.0 && config.gc_content <= 1.0);
  util::Xoshiro256 rng(config.seed);
  std::vector<Sequence> sequences;
  sequences.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Sequence sequence;
    sequence.id = id_prefix + "|" + std::to_string(i);
    sequence.description = "synthetic sequence " + std::to_string(i);
    const std::uint64_t length = config.length_histogram.sample(rng);
    sequence.data.reserve(length);
    for (std::uint64_t pos = 0; pos < length; ++pos) {
      const bool gc = rng.uniform() < config.gc_content;
      const bool first = rng.uniform() < 0.5;
      sequence.data += gc ? (first ? 'G' : 'C') : (first ? 'A' : 'T');
    }
    sequences.push_back(std::move(sequence));
  }
  return sequences;
}

std::vector<Sequence> generate_queries(std::uint64_t seed, std::uint64_t count) {
  GeneratorConfig config;
  config.seed = seed;
  config.length_histogram = util::nt_query_histogram();
  return generate_sequences(config, count, "s3asim|query");
}

std::uint64_t total_residues(const std::vector<Sequence>& sequences) {
  std::uint64_t total = 0;
  for (const Sequence& sequence : sequences) total += sequence.length();
  return total;
}

}  // namespace s3asim::bio
