#pragma once
// Symmetric eigendecomposition (Householder tridiagonalization + implicit
// QL, the EISPACK tred2/tql2 pair).
//
// Used for the PCA step of EffiTest's path selection (paper §3.1): the
// covariance matrix of a path group is decomposed into principal components,
// and one representative path is chosen per significant component.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace effitest::linalg {

/// Eigendecomposition A = V * diag(values) * V^T of a symmetric matrix.
/// Eigenvalues are sorted in DESCENDING order; column j of `vectors` is the
/// unit eigenvector for values[j].
struct EigenDecomposition {
  std::vector<double> values;
  Matrix vectors;

  /// Smallest number of leading components whose eigenvalue mass reaches
  /// `coverage` (in (0,1]) of the total. Non-positive eigenvalues contribute
  /// nothing. Returns at least 1 for a non-empty decomposition.
  [[nodiscard]] std::size_t components_for_coverage(double coverage) const;
};

/// Full eigendecomposition of a symmetric matrix: Householder reduction to
/// tridiagonal form, then implicit-shift QL with the rotations accumulated
/// into the eigenvectors — O(n^3) with a small constant, no sweep count to
/// tune. Only the upper triangle of `a` is read. Throws LinalgError for
/// non-square input.
[[nodiscard]] EigenDecomposition eigen_symmetric(Matrix a);

}  // namespace effitest::linalg
