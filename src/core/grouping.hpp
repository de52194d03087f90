#pragma once
// Procedure 1 of the paper: correlation-threshold path grouping and
// PCA-based representative path selection.
//
// Paths are pulled into groups at a descending correlation threshold
// (0.95, 0.90, ...). Within each group the delay covariance is decomposed by
// PCA; only the significant principal components carry shared information,
// so |PC_i| representative paths are selected per group — the path with the
// largest loading per component (ref. [14]). Everything else is later
// estimated by conditional prediction instead of being tested.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace effitest::core {

/// Correlation threshold of the first extraction round.
inline constexpr double kCorrStart = 0.95;
/// Per-round threshold decrease (subtracted once per round).
inline constexpr double kCorrStep = 0.05;

struct GroupingOptions {
  /// |PC_i| rule. Kaiser (default): components at or above the average
  /// eigenvalue — stable under group size and independent-variance
  /// inflation (Fig. 7). Coverage: smallest count explaining `pca_coverage`
  /// of the variance — grows with group size once coverage exceeds the
  /// intra-group correlation.
  bool use_kaiser = true;
  double pca_coverage = 0.98;
  /// Groups larger than this are PCA-decomposed on a deterministic member
  /// subsample (the PC count and the representative choice of an
  /// equicorrelated block are insensitive to subsampling). The cap bounds
  /// the O(n^3) eigensolve, which is cheap at 320; it stays because
  /// dropping the subsample would change the selections.
  std::size_t pca_max_block = 320;
  /// Worker threads for the per-group covariance-block assembly + PCA
  /// (groups are independent). 0 = shared-pool width; inside the flow, 0
  /// inherits FlowOptions::threads. The selection is a pure function of the
  /// covariance, so any value gives bit-identical results.
  std::size_t threads = 0;
};

struct PathGroup {
  std::vector<std::size_t> members;   ///< global path indices
  std::vector<std::size_t> selected;  ///< representative paths (subset)
  std::size_t num_components = 0;     ///< |PC_i|
  double threshold = 0.0;             ///< correlation threshold of the round
};

struct SelectionResult {
  std::vector<PathGroup> groups;
  /// Sorted union of all selected (to-be-tested) path indices.
  std::vector<std::size_t> tested;
};

/// Run Procedure 1 on a path-delay covariance matrix.
[[nodiscard]] SelectionResult select_paths(const linalg::Matrix& covariance,
                                           const GroupingOptions& options = {});

/// The seed-extraction rounds of Procedure 1 *without* the PCA/selection
/// step: partition all paths into correlation clusters at the descending
/// threshold schedule. Used to order paths for batch building — co-batching
/// highly correlated paths lets one clock period bisect all of them for many
/// consecutive iterations (their pass/fail outcomes track each other).
[[nodiscard]] std::vector<std::vector<std::size_t>> correlation_clusters(
    const linalg::Matrix& covariance);

}  // namespace effitest::core
