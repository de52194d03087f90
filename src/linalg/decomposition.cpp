#include "linalg/decomposition.hpp"

#include "linalg/kernels.hpp"

namespace effitest::linalg {

Matrix Cholesky::solve(const Matrix& b) const {
  if (b.rows() != l.rows()) {
    throw LinalgError("Cholesky::solve dimension mismatch");
  }
  // Blocked multi-right-hand-side solve: all columns advance together
  // through one forward and one backward sweep (kernels::trsm_*), instead
  // of the seed's per-column gather/substitute/scatter. Per element the
  // substitution order is unchanged, so results are bit-identical.
  Matrix x = b;
  kernels::trsm_lower(l, x);
  kernels::trsm_lower_transposed(l, x);
  return x;
}

Cholesky cholesky(const Matrix& a, double jitter) {
  if (!a.is_square()) throw LinalgError("cholesky requires square matrix");
  // Blocked right-looking factorization (kernels::cholesky_blocked); the
  // per-element operation order matches the seed left-looking loop, so the
  // factor is bit-identical while the trailing updates get register/cache
  // blocking and the pool.
  Matrix l;
  if (kernels::cholesky_blocked(a, 0.0, l)) return Cholesky{std::move(l)};
  if (jitter > 0.0) {
    for (double add = jitter; add <= 100.0 * jitter; add *= 10.0) {
      if (kernels::cholesky_blocked(a, add, l)) return Cholesky{std::move(l)};
    }
  }
  throw LinalgError("cholesky: matrix is not positive definite");
}

}  // namespace effitest::linalg
