#pragma once
// Principal component analysis over covariance matrices (paper §3.1).
//
// EffiTest decomposes each path group's delay covariance into principal
// components; only the PCs carry correlation information, so the number of
// paths worth testing in a group equals the number of significant PCs, and
// the representative paths are the ones with the largest loading per PC.

#include <cstddef>
#include <vector>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"

namespace effitest::stats {

struct Pca {
  /// Eigenvalues (variances along components), descending.
  std::vector<double> component_variance;
  /// Column j = unit eigenvector of component j (n x n).
  linalg::Matrix components;

  /// Number of leading components needed to explain `coverage` in (0,1] of
  /// the total variance (at least 1 for non-empty input).
  [[nodiscard]] std::size_t significant_components(double coverage) const;

  /// Kaiser criterion: components whose eigenvalue reaches the average
  /// eigenvalue (the white-noise floor). Unlike the
  /// coverage rule this is stable under group size and under uniform
  /// independent-variance inflation (the Fig.-7 protocol): shared factor
  /// directions stay above the floor, per-path noise stays below it.
  /// Returns at least 1 for non-empty input.
  [[nodiscard]] std::size_t significant_by_kaiser() const;

  /// |loading| of variable `var` on component `comp`.
  [[nodiscard]] double loading(std::size_t var, std::size_t comp) const {
    return components(var, comp);
  }
};

/// PCA of a covariance matrix (symmetric PSD expected; asymmetry is averaged
/// away before decomposition).
[[nodiscard]] Pca pca_from_covariance(linalg::Matrix cov);

/// Greedy representative selection used by Procedure 1 / ref. [14]:
/// for each of the first `num_components` PCs in order, pick the not-yet-
/// selected variable with the largest |loading| on that PC. Loadings within
/// a relative 1e-9 of that maximum (the significant_by_kaiser tolerance)
/// count as tied and the lowest index wins, so the pick does not depend on
/// how the eigensolver rounds exchangeable variables.
/// Returns selected variable indices (size == num_components, unless fewer
/// variables exist).
[[nodiscard]] std::vector<std::size_t> select_representatives(
    const Pca& pca, std::size_t num_components);

}  // namespace effitest::stats
