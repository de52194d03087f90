#pragma once
// The seed Cholesky and Cholesky solve, kept verbatim as the bit-identity
// oracles of the blocked kernels (linalg/kernels.hpp); do not "optimize".

#include "linalg/matrix.hpp"

namespace effitest::linalg::kernels {

/// The seed left-looking Cholesky of a + diag_add*I; false on a
/// non-positive (or non-finite) pivot, leaving l_out untouched.
[[nodiscard]] bool reference_cholesky(const Matrix& a, double diag_add,
                                      Matrix& l_out);
/// The seed Cholesky::solve(Matrix): per-column gather, forward+backward
/// substitution, scatter.
[[nodiscard]] Matrix reference_cholesky_solve(const Matrix& l,
                                              const Matrix& b);

}  // namespace effitest::linalg::kernels
