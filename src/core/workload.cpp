#include "core/workload.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/require.hpp"

namespace s3asim::core {
namespace {

/// Compressed-sparse-row fill, first step: `start[r + 1]` holds row r's
/// entry count on entry and row r's first slot on return.  Placing row r's
/// entries at `start[r + 1]++` then leaves `start[r + 1]` at row r's end,
/// which is row r + 1's start, so row r spans [start[r], start[r + 1]).
void counts_to_first_slots(std::span<std::uint32_t> start) {
  std::uint32_t first = 0;
  for (std::uint32_t& slot : start.subspan(1))
    first += std::exchange(slot, first);
}

}  // namespace

WorkloadModel::WorkloadModel(WorkloadConfig config, bool build_layouts)
    : config_(std::move(config)), build_layouts_(build_layouts) {
  S3A_REQUIRE(config_.query_count >= 1);
  S3A_REQUIRE(config_.fragment_count >= 1);
  S3A_REQUIRE(config_.result_count_min >= 1);
  S3A_REQUIRE(config_.result_count_min <= config_.result_count_max);
  S3A_REQUIRE(config_.size_scale > 0.0);
  S3A_REQUIRE_MSG(config_.query_lengths.empty() ||
                      config_.query_lengths.size() == config_.query_count,
                  "query_lengths must be empty or one entry per query");
  cache_.resize(config_.query_count);
  region_base_cache_.assign(config_.query_count, UINT64_MAX);
}

std::vector<std::uint32_t> score_order(
    std::span<const std::uint64_t> scores) {
  const auto n = static_cast<std::uint32_t>(scores.size());
  if (n == 0) return {};
  // One 128-bit key per result: the complemented score above the index, so
  // ascending keys are descending scores with ties by ascending index.
  using Key = unsigned __int128;
  // About one key per bucket: the top bits of the complemented score pick
  // it, so ascending buckets hold ascending keys.
  const int bits = std::min(static_cast<int>(std::bit_width(n)), 20);
  const int shift = 64 - bits;
  std::vector<std::uint32_t> bucket_start((std::size_t{1} << bits) + 1, 0);
  for (const std::uint64_t score : scores)
    ++bucket_start[(~score >> shift) + 1];
  counts_to_first_slots(bucket_start);
  std::vector<Key> keys(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t descending = ~scores[i];
    keys[bucket_start[(descending >> shift) + 1]++] =
        Key{descending} << 32 | i;
  }
  for (std::size_t b = 0; b + 1 < bucket_start.size(); ++b)
    if (bucket_start[b + 1] - bucket_start[b] > 1)
      std::sort(keys.begin() + bucket_start[b],
                keys.begin() + bucket_start[b + 1]);
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t pos = 0; pos < n; ++pos)
    order[pos] = static_cast<std::uint32_t>(keys[pos]);
  return order;
}

const QueryWorkload& WorkloadModel::generate(std::uint32_t q) const {
  S3A_REQUIRE(q < config_.query_count);
  if (cache_[q]) return *cache_[q];

  // Independent stream per query: results do not depend on generation order.
  util::Xoshiro256 root(config_.seed);
  util::Xoshiro256 rng = root.fork(util::hash_combine(0x51e5, q));

  auto workload = std::make_unique<QueryWorkload>();
  // Trace replay pins each query's length to the trace's `query_size`
  // column; the histogram path (and its RNG draw order) is untouched when
  // no override is present, keeping closed-batch workloads byte-identical.
  workload->query_length = config_.query_lengths.empty()
                               ? config_.query_histogram.sample(rng)
                               : config_.query_lengths[q];

  const std::uint32_t count = static_cast<std::uint32_t>(
      rng.uniform_u64(config_.result_count_min, config_.result_count_max));
  const std::uint64_t query_length = workload->query_length;
  workload->result_count = count;
  workload->fragment_results.assign(config_.fragment_count, 0);
  workload->fragment_bytes.assign(config_.fragment_count, 0);
  std::uint32_t* const fragment_results = workload->fragment_results.data();
  std::uint64_t* const fragment_bytes = workload->fragment_bytes.data();
  std::uint64_t total_bytes = 0;
  // A layout needs every result in draw order; a summary only the sums.
  std::vector<std::uint64_t> scores(build_layouts_ ? count : 0);
  std::vector<ResultInfo> drawn(scores.size());
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t score = rng();
    const std::uint64_t db_len = config_.database_histogram.sample(rng);
    // Paper §3: result size ranges from the minimum result size up to
    // 3 × max(query length, matching database sequence length).
    const double raw_cap =
        config_.size_scale *
        3.0 * static_cast<double>(std::max(query_length, db_len));
    const auto cap = std::max(
        config_.min_result_bytes,
        static_cast<std::uint64_t>(raw_cap));
    const std::uint64_t bytes = rng.uniform_u64(config_.min_result_bytes, cap);
    const auto fragment = static_cast<std::uint32_t>(
        rng.uniform_u64(0, config_.fragment_count - 1));
    ++fragment_results[fragment];
    fragment_bytes[fragment] += bytes;
    total_bytes += bytes;
    if (build_layouts_) {
      scores[i] = score;
      drawn[i] = ResultInfo{score, bytes, fragment};
    }
  }
  workload->total_bytes = total_bytes;

  if (build_layouts_) {
    // Final file order: descending score, ties by draw index.
    workload->results.resize(count);
    const std::vector<std::uint32_t> order = score_order(scores);
    for (std::uint32_t pos = 0; pos < count; ++pos)
      workload->results[pos] = drawn[order[pos]];

    // One pass in file order lays out the region and fills the fragment
    // rows; fragment_start[f + 1] starts as fragment f's result count.
    std::vector<std::uint32_t>& row_slot = workload->fragment_start;
    row_slot.assign(config_.fragment_count + 1, 0);
    std::copy(workload->fragment_results.begin(),
              workload->fragment_results.end(), row_slot.begin() + 1);
    counts_to_first_slots(row_slot);
    workload->offsets.resize(count);
    workload->fragment_index.resize(count);
    std::uint64_t cursor = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const ResultInfo& result = workload->results[i];
      workload->offsets[i] = cursor;
      cursor += result.bytes;
      workload->fragment_index[row_slot[result.fragment + 1]++] = i;
    }
  }
  cache_[q] = std::move(workload);
  return *cache_[q];
}

const QuerySummary& WorkloadModel::summary(std::uint32_t q) const {
  return generate(q);
}

const QueryWorkload& WorkloadModel::query(std::uint32_t q) const {
  S3A_REQUIRE_MSG(build_layouts_,
                  "this workload model draws summaries only, not layouts");
  return generate(q);
}

std::uint64_t WorkloadModel::region_base(std::uint32_t q) const {
  S3A_REQUIRE(q < config_.query_count);
  if (region_base_cache_[q] != UINT64_MAX) return region_base_cache_[q];
  std::uint64_t base = 0;
  for (std::uint32_t earlier = 0; earlier < q; ++earlier)
    base += summary(earlier).total_bytes;
  region_base_cache_[q] = base;
  return base;
}

std::uint64_t WorkloadModel::total_output_bytes() const {
  const std::uint32_t last = config_.query_count - 1;
  return region_base(last) + summary(last).total_bytes;
}

std::uint64_t WorkloadModel::total_result_count() const {
  std::uint64_t total = 0;
  for (std::uint32_t q = 0; q < config_.query_count; ++q)
    total += summary(q).result_count;
  return total;
}

std::uint64_t WorkloadModel::fragment_result_bytes(std::uint32_t q,
                                                   std::uint32_t fragment) const {
  S3A_REQUIRE(fragment < config_.fragment_count);
  return summary(q).fragment_bytes[fragment];
}

}  // namespace s3asim::core
