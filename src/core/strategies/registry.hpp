#pragma once

/// \file registry.hpp
/// Builds a group's `IoStrategy` from its `core::Strategy` enumerator.
/// `make_strategy` is one switch: the independent worker writers (§2.3)
/// differ only in their noncontiguous method and the collective ones
/// (§2.2) only in their collective algorithm, so registry.cpp builds both
/// from that parameter; MW, N-N and WW-Aggr, whose behaviour is more than
/// a write-path parameter, live in a translation unit each and expose the
/// factories below.  The strategy's classification is not here but in the
/// predicates of `core/strategy.hpp`.

#include <memory>

#include "core/strategies/io_strategy.hpp"
#include "core/strategy.hpp"

namespace s3asim::core {

/// Instantiates the `IoStrategy` for `strategy` (one fresh instance per
/// group per run — strategies may hold per-run state).
[[nodiscard]] std::unique_ptr<IoStrategy> make_strategy(Strategy strategy);

// Factories of the strategies with a translation unit of their own
// (strategies/<name>.cpp).
[[nodiscard]] std::unique_ptr<IoStrategy> make_mw_strategy();
[[nodiscard]] std::unique_ptr<IoStrategy> make_ww_file_per_process_strategy();
[[nodiscard]] std::unique_ptr<IoStrategy> make_ww_aggr_strategy();

}  // namespace s3asim::core
