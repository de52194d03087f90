#pragma once
// Independent checks of path test multiplexing (core/multiplexing.hpp):
// the optimum batch count, a batching that attains it, and the legality of
// one batch.

#include <cstddef>
#include <span>
#include <vector>

#include "core/multiplexing.hpp"
#include "core/problem.hpp"

namespace effitest::core {

/// Smallest legal batch count (max per-FF source/sink multiplicity) —
/// the optimal coloring achieves exactly this when no exclusions exist.
[[nodiscard]] std::size_t batch_lower_bound(const Problem& problem,
                                            std::span<const std::size_t> paths);

/// Optimal Delta-coloring of the bipartite source/sink multigraph (König):
/// conflict-free batches, exclusions ignored, exactly `batch_lower_bound`
/// of them.
[[nodiscard]] std::vector<Batch> optimal_batches(
    const Problem& problem, std::span<const std::size_t> paths);

/// Check batch legality (conflict rule + exclusions).
[[nodiscard]] bool batch_is_legal(const Problem& problem, const Batch& batch,
                                  const BatchingOptions& options = {});

}  // namespace effitest::core
