#pragma once

/// \file sequence.hpp
/// The biological sequence type shared by the FASTA reader/writer and the
/// synthetic database generator.

#include <cstdint>
#include <string>

namespace s3asim::bio {

/// A nucleotide (or protein) sequence with FASTA metadata.
struct Sequence {
  std::string id;           ///< accession, e.g. "gi|3123744|dbj|AB013447.1"
  std::string description;  ///< free text after the id on the header line
  std::string data;         ///< residues, upper-case

  [[nodiscard]] std::uint64_t length() const noexcept { return data.size(); }
};

}  // namespace s3asim::bio
