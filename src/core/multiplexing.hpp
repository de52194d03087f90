#pragma once
// Path test multiplexing (paper §3.2).
//
// Paths measured in the same tester iteration (a *batch*) must be uniquely
// attributable: no two paths in a batch may converge at or leave from the
// same flip-flop. A batch is therefore a set of FF-disjoint chains/cycles —
// within a batch every flip-flop appears at most once as a source and at
// most once as a sink (series arrangements like p14, p46, p67 are legal).
//
// Batches are built by an order-respecting first-fit that also honours
// mutual-exclusion constraints (paths that logic masking prevents from being
// sensitized together). The flow hands it paths cluster-major (DESIGN.md §7),
// and first-fit keeps co-correlated paths together. Minimizing the batch
// count is bipartite multigraph edge coloring, whose optimum is the maximum
// per-FF multiplicity (König); that optimal coloring is a test oracle
// (`optimal_batches` in tests/oracles/batch_checks.hpp), not a flow path.
//
// After batch formation, unoccupied slots are filled with not-yet-tested
// paths of largest predicted variance so their delays get measured for free
// (the posterior variance of eq. 5 is measurement-independent).

#include <cstddef>
#include <utility>
#include <vector>

#include "core/problem.hpp"

namespace effitest::core {

struct Batch {
  std::vector<std::size_t> paths;  ///< monitored-pair indices
};

struct BatchingOptions {
  /// Ignored: `build_batches` always runs first-fit. Kept only because
  /// effibench's flow replica assigns it; it goes with that replica.
  bool optimal_coloring = true;
  /// Pairs of paths that must not share a batch (logic masking, §3.2).
  std::vector<std::pair<std::size_t, std::size_t>> exclusions;
};

/// Arrange `paths` (monitored-pair indices) into conflict-free batches by
/// first-fit in the given order: each path joins the first batch it does
/// not conflict with, or opens a new one.
[[nodiscard]] std::vector<Batch> build_batches(
    const Problem& problem, std::span<const std::size_t> paths,
    const BatchingOptions& options = {});

/// Fill unoccupied slots: every batch smaller than the largest one is topped
/// up with paths from `candidates` (ordered by decreasing priority) that do
/// not conflict. Each candidate is inserted at most once, into the open batch
/// whose mean delay range center is nearest to its own — co-centered ranges
/// are what alignment exploits. `centers` is indexed by monitored-pair id.
/// Returns the inserted path indices.
[[nodiscard]] std::vector<std::size_t> fill_empty_slots(
    const Problem& problem, std::vector<Batch>& batches,
    std::span<const std::size_t> candidates, const BatchingOptions& options,
    std::span<const double> centers);

}  // namespace effitest::core
