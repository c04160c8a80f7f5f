#pragma once

/// \file keyval.hpp
/// A small key=value configuration-file format for the CLI driver:
///
///   # comment
///   strategy = WW-List        ; inline comments too
///   nprocs = 64
///   query_sync = true
///   strip_size = 64KiB
///
///   [histogram database]      # section: histogram bins, one per line
///   6 100 0.045
///   101 300 0.110
///
/// Lookups are typed; unknown keys can be enumerated so callers can reject
/// typos.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/histogram.hpp"

namespace s3asim::util {

class KeyValConfig {
 public:
  /// Parses text; throws std::invalid_argument with line info on errors.
  [[nodiscard]] static KeyValConfig parse(const std::string& text);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters: return the parsed value or `fallback`; throw
  /// std::invalid_argument when present but malformed.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Accepts unit suffixes via parse_bytes ("64KiB", "1.5 MiB", "4096").
  [[nodiscard]] std::uint64_t get_bytes(const std::string& key,
                                        std::uint64_t fallback) const;

  /// Histogram sections: `[histogram <name>]` followed by `lo hi weight`
  /// lines.
  [[nodiscard]] std::optional<BoxHistogram> get_histogram(
      const std::string& name) const;

  /// Keys that were never queried through any getter — typo detection.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

 private:
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::map<std::string, BoxHistogram> histograms_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace s3asim::util
