#pragma once
// The seed Cholesky::solve, kept verbatim as the bit-identity oracle of the
// library's row-sweep solve (linalg/decomposition.hpp); do not "optimize".

#include "linalg/matrix.hpp"

namespace effitest::linalg {

/// Solve L L^T X = B one column at a time: gather the column, forward then
/// backward substitution, scatter.
[[nodiscard]] Matrix reference_cholesky_solve(const Matrix& l,
                                              const Matrix& b);

}  // namespace effitest::linalg
