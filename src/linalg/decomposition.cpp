#include "linalg/decomposition.hpp"

#include <cstddef>

#include "linalg/kernels.hpp"

namespace effitest::linalg {

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  return backward_substitute(l, forward_substitute(l, b));
}

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

std::vector<double> forward_substitute(const Matrix& l,
                                       std::span<const double> b) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw LinalgError("forward_substitute size mismatch");
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
  }
  return y;
}

std::vector<double> backward_substitute(const Matrix& l,
                                        std::span<const double> y) {
  const std::size_t n = l.rows();
  if (y.size() != n) throw LinalgError("backward_substitute size mismatch");
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l(k, ii) * x[k];
    x[ii] = v / l(ii, ii);
  }
  return x;
}

}  // namespace effitest::linalg
