#pragma once
// The seed Cholesky, triangular substitutions and Cholesky solves, kept
// verbatim as the bit-identity oracles of the blocked kernels
// (linalg/kernels.hpp); do not "optimize".

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace effitest::linalg::kernels {

/// The seed left-looking Cholesky of a + diag_add*I; false on a
/// non-positive (or non-finite) pivot, leaving l_out untouched.
[[nodiscard]] bool reference_cholesky(const Matrix& a, double diag_add,
                                      Matrix& l_out);
/// Solve L y = b for lower-triangular L (the per-column reference of
/// trsm_lower).
[[nodiscard]] std::vector<double> reference_forward_substitute(
    const Matrix& l, std::span<const double> b);
/// Solve L^T x = y for lower-triangular L (the per-column reference of
/// trsm_lower_transposed).
[[nodiscard]] std::vector<double> reference_backward_substitute(
    const Matrix& l, std::span<const double> y);
/// The seed one-vector Cholesky::solve: forward then backward substitution.
[[nodiscard]] std::vector<double> reference_cholesky_solve(
    const Matrix& l, std::span<const double> b);
/// The seed Cholesky::solve(Matrix): per-column gather, one-vector solve,
/// scatter.
[[nodiscard]] Matrix reference_cholesky_solve(const Matrix& l,
                                              const Matrix& b);

}  // namespace effitest::linalg::kernels
