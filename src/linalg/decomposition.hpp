#pragma once
// Cholesky factorization and triangular solves for symmetric positive
// definite systems.
//
// EffiTest uses these for one job: the conditional-Gaussian gain
// Sigma_{k,t} Sigma_t^{-1} of eqs. (4)-(5) (stats::PredictionGain), where
// Sigma_t covers only the tested paths (at most 64 x 64 on the paper's
// circuits). Monte-Carlo dies come from timing::CircuitModel's factor
// model, not from a factored covariance. Both routines are plain serial
// loops; DESIGN.md section 9 gives their cost on the real shapes.

#include "linalg/matrix.hpp"

namespace effitest::linalg {

/// Result of a Cholesky factorization A = L * L^T with L lower-triangular.
struct Cholesky {
  Matrix l;  ///< lower-triangular factor

  /// Solve A X = B for every column of B at once: one forward and one
  /// backward substitution sweep over whole rows of B. Each column gets
  /// the bits a one-column substitution would give it.
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
