#pragma once
// Cholesky factorization and triangular solves for symmetric positive
// definite systems.
//
// EffiTest uses these for one job: the conditional-Gaussian gain
// Sigma_{k,t} Sigma_t^{-1} of eqs. (4)-(5) (stats::PredictionGain). Monte-
// Carlo dies come from timing::CircuitModel's factor model, not from a
// factored covariance.

#include "linalg/matrix.hpp"

namespace effitest::linalg {

/// Result of a Cholesky factorization A = L * L^T with L lower-triangular.
struct Cholesky {
  Matrix l;  ///< lower-triangular factor

  /// Solve A X = B for every column of B at once (kernels::trsm_lower and
  /// trsm_lower_transposed).
  [[nodiscard]] Matrix solve(const Matrix& b) const;
};

/// Factor a symmetric positive definite matrix. Throws LinalgError if the
/// matrix is not SPD (within `jitter` tolerance on the diagonal).
///
/// If `jitter` > 0, up to three attempts are made with increasing diagonal
/// regularization (jitter, 10*jitter, 100*jitter) before giving up.  This
/// mirrors standard practice for nearly singular covariance matrices built
/// from highly correlated path delays.
[[nodiscard]] Cholesky cholesky(const Matrix& a, double jitter = 0.0);

}  // namespace effitest::linalg
